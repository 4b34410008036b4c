package accumulator

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// ElementEncoder maps attribute strings into the bounded integer domain
// [1, q−1] required by Construction 2. The paper notes that hashing
// attribute values to full-width integers would force an impractically
// large public key and proposes a trusted oracle instead; the two
// implementations here realize both options.
type ElementEncoder interface {
	// Encode returns the integer for an element. Implementations must
	// be deterministic: the miner, the SP, and the verifier all encode
	// independently and must agree.
	Encode(elem string) (int, error)
}

// HashEncoder hashes elements into [1, Q−1]. It is stateless and needs
// no coordination, but two distinct elements may collide. A collision
// is a liveness failure, not a soundness one: it leaves an honest SP
// unable to prove a true mismatch (the codes intersect, so no proof
// exists), and can never make a false disjointness proof verify.
// Choose Q comfortably above the square of the expected vocabulary
// size to make collisions unlikely.
type HashEncoder struct {
	// Q is the exclusive domain bound (must match the key's q).
	Q int
}

// Encode implements ElementEncoder.
func (h HashEncoder) Encode(elem string) (int, error) {
	if h.Q < 2 {
		return 0, fmt.Errorf("accumulator: HashEncoder.Q = %d too small", h.Q)
	}
	d := sha256.Sum256([]byte(elem))
	v := binary.BigEndian.Uint64(d[:8])
	return int(v%uint64(h.Q-1)) + 1, nil
}

// DictEncoder assigns consecutive identifiers on first sight. It is the
// in-process stand-in for the paper's trusted oracle: collision-free by
// construction, but all parties must share the same instance.
type DictEncoder struct {
	mu   sync.Mutex
	q    int
	ids  map[string]int
	next int
}

// NewDictEncoder creates an empty dictionary bounded by q (the key's
// domain bound): at most q−1 distinct elements can be registered. The
// bound must cover every element ever *queried*, not only every one
// mined: proving a mismatch encodes the clause, so a keyword that no
// block holds still takes an id, and query traffic alone can fill the
// dictionary, after which mining a block with a new element fails.
func NewDictEncoder(q int) *DictEncoder {
	return &DictEncoder{q: q, ids: make(map[string]int), next: 1}
}

// Encode implements ElementEncoder, allocating a fresh id when needed.
func (d *DictEncoder) Encode(elem string) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[elem]; ok {
		return id, nil
	}
	if d.next >= d.q {
		return 0, fmt.Errorf("accumulator: dictionary full (%d elements, bound %d)", d.next-1, d.q)
	}
	id := d.next
	d.next++
	d.ids[elem] = id
	return id, nil
}

// Len returns the number of registered elements.
func (d *DictEncoder) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ids)
}
