// Package core exercises the lockio analyzer. mineTorn deliberately
// reintroduces the torn-state shape of the crash-recovery race — a
// journal write and backend persistence inline inside the publish
// critical section — which is the historical bug this analyzer exists
// to keep out.
package core

import (
	"os"
	"strconv"
	"sync"

	"lockio/internal/storage"
)

type record struct {
	Height int
}

type prover struct{}

func (prover) ProveDisjoint(a, b int) error { return nil }

type Node struct {
	mu      sync.RWMutex
	be      storage.Backend
	journal *os.File
	prv     prover
}

// mineTorn is the torn-state bug pattern: journal and persist while
// holding the publish lock, so a slow disk stalls every reader and a
// crash mid-append publishes torn state.
func (n *Node) mineTorn(rec record) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	data := []byte(strconv.Itoa(rec.Height))
	if _, err := n.journal.Write(data); err != nil { // want `file I/O \(os.Write\) while n.mu is held`
		return err
	}
	return n.be.Append(data) // want `storage backend Append while n.mu is held`
}

// commitLocked is the sanctioned choke point: it takes no lock itself
// (callers do) and is the reviewed atomic validate-persist-publish
// path, so nothing inside it is flagged.
func (n *Node) commitLocked(rec record) error {
	data := []byte(strconv.Itoa(rec.Height))
	if _, err := n.journal.Write(data); err != nil {
		return err
	}
	return n.be.Append(data)
}

func (n *Node) mineGood(rec record) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitLocked(rec) // *Locked convention: exempt
}

func (n *Node) persistHelper(data []byte) error {
	return n.be.Append(data)
}

// minePropagated hides the I/O one call deep; the one-level
// propagation still catches it because persistHelper does not follow
// the *Locked convention.
func (n *Node) minePropagated(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.persistHelper(data) // want `call to persistHelper, which performs storage backend Append, while n.mu is held`
}

func (n *Node) proveUnderRLock() error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.prv.ProveDisjoint(1, 2) // want `disjointness proving \(ProveDisjoint\) while n.mu is held`
}

func (n *Node) fileUnderLock(path string) error {
	n.mu.Lock()
	err := os.WriteFile(path, nil, 0o644) // want `file I/O \(os.WriteFile\) while n.mu is held`
	n.mu.Unlock()
	return err
}

// afterUnlock releases before touching the disk: clean.
func (n *Node) afterUnlock(path string) error {
	n.mu.Lock()
	n.mu.Unlock()
	return os.WriteFile(path, nil, 0o644)
}

// closureUnderLock: a rollback closure defined inside the critical
// section runs under it.
func (n *Node) closureUnderLock(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	rollback := func() error {
		return n.be.Truncate(0) // want `storage backend Truncate while n.mu is held`
	}
	if err := rollback(); err != nil {
		return err
	}
	return nil
}

// spawnDetached: the spawned goroutine does not inherit the caller's
// lock, so its body is scanned lock-free.
func (n *Node) spawnDetached(path string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	go func() {
		_ = os.WriteFile(path, nil, 0o644)
	}()
}

// pagedRead models the shard paged-source shape: grab the backend
// pointer under the read lock, release, then do the slow read.
func (n *Node) pagedRead(h int) ([]byte, error) {
	n.mu.RLock()
	be := n.be
	n.mu.RUnlock()
	return be.Read(h)
}

// frozenExport is a deliberate whole-node freeze, exempted by a
// function-scoped directive the way core.Save is in the real tree.
//
//vchainlint:ignore lockio snapshot export freezes commits for a consistent stream
func (n *Node) frozenExport() error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, err := n.journal.Write(nil)
	return err
}

// lineScoped: a line directive just above the statement suppresses
// exactly that finding.
func (n *Node) lineScoped(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	//vchainlint:ignore lockio buffered in-memory journal, not disk
	return n.be.Append(data)
}

// otherAnalyzer: a directive naming a different analyzer suppresses
// nothing here.
func (n *Node) otherAnalyzer(data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	//vchainlint:ignore typederr wrong analyzer on purpose
	return n.be.Append(data) // want `storage backend Append while n.mu is held`
}
