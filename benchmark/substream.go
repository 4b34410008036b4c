package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/vchain-go/vchain/internal/core"
	"github.com/vchain-go/vchain/internal/service"
	"github.com/vchain-go/vchain/internal/subscribe"
)

// deliveryTimeout bounds the wait for one block's deliveries; a stream
// that stays silent this long has failed.
const deliveryTimeout = 30 * time.Second

// delivery is one verified publication as it left a subscription's
// stream, stamped on arrival.
type delivery struct {
	sub int
	d   service.Delivery
	at  time.Time
}

// streams is sub_stream's client side: the subscriptions on the one
// gob connection and a goroutine per stream that forwards what the
// client library has verified.
type streams struct {
	queries []core.Query
	subs    []*service.Subscription
	merged  chan delivery
	done    chan struct{}
	wg      sync.WaitGroup
}

// subscribe registers the continuous queries and starts forwarding.
func (e *env) subscribe(queries []core.Query) error {
	st := &streams{
		queries: queries,
		// One slot per subscription: each has at most one delivery per
		// block, and the next block waits for all of them.
		merged: make(chan delivery, len(queries)),
		done:   make(chan struct{}),
	}
	e.streams = st
	for i, q := range queries {
		sub, err := e.cli.SubscribeCtx(context.Background(), q, service.SubscribeConfig{Acc: e.acc, Light: e.light})
		if err != nil {
			return fmt.Errorf("subscription %d: %w", i, err)
		}
		st.subs = append(st.subs, sub)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			for d := range sub.C {
				select {
				case st.merged <- delivery{i, d, time.Now()}:
				case <-st.done:
					return
				}
			}
		}()
	}
	return nil
}

// stop ends the forwarders; the client connection must already be
// closed so the streams end.
func (st *streams) stop() {
	close(st.done)
	st.wg.Wait()
}

// runSub is sub_stream: blocks are mined live while every subscription
// is open, the next block once every subscriber has the previous one.
// One operation is one delivery: its latency runs from the start of
// the block's MineBlock to the moment the client library hands over
// the locally verified publication, so a block gives one sample per
// subscriber.
func (e *env) runSub(lim limit) *measurement {
	st := e.streams
	return e.timed(func(m *measurement) {
		more := lim.start()
		for h := e.cfg.SubWarmBlocks; h < len(e.ds.Blocks) && more(h-e.cfg.SubWarmBlocks); h++ {
			traced := e.traceOp(h - e.cfg.SubWarmBlocks)
			t0 := time.Now()
			s := e.tr.begin()
			_, err := e.node.MineBlock(e.ds.Blocks[h], int64(h))
			e.tr.end(spanMine, s, len(e.ds.Blocks[h]))
			if err == nil {
				s = e.tr.begin()
				err = e.srv.ProcessBlock(h)
				e.tr.end(spanProcess, s, len(st.subs))
			}
			var got []delivery
			timeout := time.After(deliveryTimeout)
			for err == nil && len(got) < len(st.subs) {
				select {
				case d := <-st.merged:
					got = append(got, d)
				case <-timeout:
					err = fmt.Errorf("block %d: %d of %d deliveries after %v", h, len(got), len(st.subs), deliveryTimeout)
				}
			}
			m.extra["blocks"]++
			if err == nil {
				m.busy += got[len(got)-1].at.Sub(t0) // the block is done when its last delivery is in
			}
			for _, d := range got {
				m.record(d.at.Sub(t0), traced, e.checkDelivery(d, h))
				if d.d.Pub != nil && d.d.Pub.VO != nil {
					m.bytes += float64(len(core.EncodeVO(e.acc, d.d.Pub.VO)))
				}
			}
			if err != nil {
				// Every delivery that did not come is a failed operation, and
				// a broken stream does not recover.
				for i := len(got); i < len(st.subs); i++ {
					m.attempted++
					m.fail(err)
				}
				break
			}
			e.probe.tick()
		}
	})
}

// checkDelivery holds one delivery to the contract: verified by the
// client library, covering exactly block h, and equal to the naive
// scan of that block. In a traced operation it also repeats the
// verification by a direct call, which is the only way to time it from
// outside the client.
func (e *env) checkDelivery(d delivery, h int) error {
	if d.d.Err != nil {
		return fmt.Errorf("subscription %d, block %d: %w", d.sub, h, d.d.Err)
	}
	pub := d.d.Pub
	if pub == nil || pub.From != h || pub.To != h {
		return fmt.Errorf("subscription %d: delivery does not cover block %d", d.sub, h)
	}
	q := e.streams.queries[d.sub]
	if err := sameObjects(d.d.Objects, oracle(e.ds, q, h, h)); err != nil {
		return fmt.Errorf("subscription %d, block %d: %w", d.sub, h, err)
	}
	if s := e.tr.begin(); s >= 0 {
		_, err := subscribe.VerifyPublication(e.ver, q, pub)
		e.tr.end(spanPubVerify, s, 1)
		if err != nil {
			return errors.Join(errors.New("replayed verification disagrees with the client's"), err)
		}
	}
	return nil
}
