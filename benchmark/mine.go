package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"github.com/vchain-go/vchain/internal/chain"
	"github.com/vchain-go/vchain/internal/core"
)

// durabilityQueries is how many verified queries check a reopened
// store after mine_durable.
const durabilityQueries = 8

// runMine is mine_durable: one miner appends blocks to a fresh fsync'd
// log, the next block when the previous one is durable. Afterwards the
// store is closed and reopened from disk alone: every acknowledged
// block must be there, under the same header, and answer verified
// queries like the naive scan does.
func (e *env) runMine(seed int64, lim limit) *measurement {
	var mined []*chain.Block
	m := e.timed(func(m *measurement) {
		more := lim.start()
		for h := 0; h < len(e.ds.Blocks) && more(h); h++ {
			traced := e.traceOp(h)
			t0 := time.Now()
			s := e.tr.begin()
			blk, err := e.node.MineBlock(e.ds.Blocks[h], int64(h))
			e.tr.end(spanMine, s, len(e.ds.Blocks[h]))
			lat := time.Since(t0)
			m.record(lat, traced, err)
			m.busy += lat
			if err != nil {
				break
			}
			mined = append(mined, blk)
			if len(mined) == e.cfg.MineHeapAt {
				m.heapMB = liveHeapMB()
			}
			m.extra["payload_bytes"] += float64(payloadBytes(blk.Objects))
			if traced {
				// What the commit did inside, repeated by a direct call.
				if ads, err := e.full.ADSAt(h); err == nil {
					s = e.tr.begin()
					rec, _ := core.EncodeChainRecord(blk, ads)
					e.tr.end(spanRecEncode, s, len(rec))
				}
			}
			e.probe.tick()
		}
	})
	if e.tr != nil {
		e.tr.on.Store(true)
		e.tr.op.Store(0)
	}

	if err := e.node.Close(); err != nil {
		m.fail(fmt.Errorf("closing the store: %w", err))
	}
	m.bytes = float64(dirBytes(e.dir))
	reopens := 1
	if e.tr != nil {
		reopens = e.cfg.Reopens
	}
	for i := 0; i < reopens; i++ {
		if i > 0 {
			e.node.Close()
		}
		s := e.tr.begin()
		err := e.openDurable()
		e.tr.end(spanReopen, s, len(mined))
		if err != nil {
			m.attempted++
			m.fail(fmt.Errorf("reopening the store: %w", err))
			return m
		}
	}
	m.attempted++
	m.fail(e.checkReopened(mined))
	if len(mined) >= e.cfg.WindowBlocks {
		qs := genQueries(e.cfg, e.ds, seed, durabilityQueries, len(mined))
		for _, q := range qs {
			m.attempted++
			parts, err := e.node.TimeWindowParts(context.Background(), q, false)
			var objs []chain.Object
			if err == nil {
				objs, err = e.ver.VerifyWindowParts(q, parts)
			}
			if err == nil {
				err = sameObjects(objs, oracle(e.ds, q, q.StartBlock, q.EndBlock))
			}
			m.fail(err)
		}
	}
	return m
}

// checkReopened compares the reopened chain with the blocks MineBlock
// acknowledged and syncs the light client from it.
func (e *env) checkReopened(mined []*chain.Block) error {
	headers := e.node.Headers()
	if len(headers) != len(mined) {
		return fmt.Errorf("reopened store holds %d blocks, %d were acknowledged", len(headers), len(mined))
	}
	for h, blk := range mined {
		if headers[h].Hash() != blk.Header.Hash() {
			return fmt.Errorf("reopened block %d has a different header", h)
		}
	}
	e.light = chain.NewLightStore(0)
	e.ver = &core.Verifier{Acc: e.acc, Light: e.light}
	return e.light.Sync(headers)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
