package main

import (
	"math"
	"math/big"
	"time"

	"github.com/vchain-go/vchain/internal/crypto/ec"
	"github.com/vchain-go/vchain/internal/crypto/pairing"
)

// perLayer lists the metrics of single layers, named <module>.<metric>.
// A traced run prints all of them on every workload; one a workload
// does not exercise reads 0. README.md says which end-to-end metric
// each is expected to move, and where. BENCHMARK.json repeats this
// table; a test keeps the two equal.
var perLayer = []metricDef{
	{Name: "crypto.fp_mul_ns", Unit: "ns", Better: "lower"},
	{Name: "crypto.scalarmul_ms", Unit: "ms", Better: "lower"},
	{Name: "crypto.msm256_ms", Unit: "ms", Better: "lower"},
	{Name: "crypto.pairing_ms", Unit: "ms", Better: "lower"},

	{Name: "accumulator.prove_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "accumulator.prove_calls_per_query", Unit: "count", Better: "lower"},
	{Name: "accumulator.verify_batch_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "accumulator.verify_checks_per_query", Unit: "count", Better: "lower"},
	{Name: "accumulator.setup_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "accumulator.sum_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "proofs.computed_per_query", Unit: "count", Better: "lower"},
	{Name: "proofs.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "proofs.evictions", Unit: "count", Better: "lower"},

	{Name: "core.sp_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.walk_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.verify_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.verify_self_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.vo_encode_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.vo_decode_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "core.results_per_query", Unit: "count", Better: "higher"},
	{Name: "core.mine_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.record_encode_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "core.record_bytes_per_block", Unit: "B", Better: "lower"},
	{Name: "core.record_decode_ms_per_pagein", Unit: "ms", Better: "lower"},
	{Name: "core.ads_verify_ms_per_pagein", Unit: "ms", Better: "lower"},

	{Name: "adstore.lookups_per_query", Unit: "count", Better: "lower"},
	{Name: "adstore.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "adstore.decodes_per_query", Unit: "count", Better: "lower"},
	{Name: "adstore.evictions_per_query", Unit: "count", Better: "lower"},

	{Name: "storage.append_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "storage.fsync_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "storage.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "storage.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.read_ms_per_pagein", Unit: "ms", Better: "lower"},
	{Name: "storage.reads_per_query", Unit: "count", Better: "lower"},

	{Name: "shard.parts_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.sp_ms_per_query", Unit: "ms", Better: "lower"},

	{Name: "service.rpc_overhead_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "service.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "service.wire_expansion", Unit: "ratio", Better: "lower"},
	{Name: "service.header_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "service.push_bytes_per_block", Unit: "B", Better: "lower"},

	{Name: "gateway.http_overhead_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "gateway.body_decode_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "gateway.body_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "gateway.shed_ratio", Unit: "ratio", Better: "lower"},

	{Name: "subscribe.process_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "subscribe.pubs_per_block", Unit: "count", Better: "lower"},
	{Name: "subscribe.proofs_per_block", Unit: "count", Better: "lower"},
	{Name: "subscribe.client_verify_ms_per_pub", Unit: "ms", Better: "lower"},

	{Name: "harness.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.layer_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// layerMetrics derives every per-layer metric from a traced run. Times
// are averaged over the recorded (traced) operations; the program's
// own counters are taken over all operations of the phase, because they
// count whether or not spans were being kept.
func layerMetrics(e *env, m *measurement) map[string]float64 {
	tr := e.tr
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range cryptoMicro(e.cfg.Preset) {
		out[k] = v
	}

	ops := float64(m.attempted)
	nT := float64(len(m.latencies(true))) // operations with recording on
	isQuery := e.name != "mine_durable" && e.name != "sub_stream"
	perT := func(ns int64) float64 { return ratio(nsToMs(ns), nT) }
	mean := func(ns int64, count int) float64 { return ratio(nsToMs(ns), float64(count)) }

	rtts := tr.named(spanGobRTT, spanHTTPRTT)
	sps := tr.named(spanSP)
	proves := tr.named(spanProve)
	reads := tr.named(spanRead)
	verifies := tr.named(spanVerify)
	proveNs, proveCalls, _ := total(proves)
	batchNs, _, checks := total(tr.named(spanVerifyBatch))
	setupNs, setupCalls, _ := total(tr.named(spanAccSetup))
	sumNs, sumCalls, _ := total(tr.named(spanAccSum))
	spNs, _, _ := total(sps)
	rttNs, _, _ := total(rtts)
	verifyNs, _, _ := total(verifies)
	readNs, readCalls, _ := total(reads)
	recDecNs, recDecCalls, _ := total(tr.named(spanRecDecode))
	adsVerNs, adsVerCalls, _ := total(tr.named(spanADSVerify))
	encNs, _, _ := total(tr.named(spanVOEncode))
	decNs, _, _ := total(tr.named(spanVODecode))
	bodyNs, _, _ := total(tr.named(spanBodyDecode))

	out["accumulator.setup_ms_per_op"] = mean(setupNs, setupCalls)
	out["accumulator.sum_ms_per_op"] = mean(sumNs, sumCalls)

	dp := m.after.proofs
	bp := m.before.proofs
	hits, misses := float64(dp.CacheHits-bp.CacheHits), float64(dp.CacheMisses-bp.CacheMisses)
	out["proofs.hit_ratio"] = ratio(hits, hits+misses)
	out["proofs.evictions"] = float64(dp.Evictions - bp.Evictions)

	da, ba := m.after.ads, m.before.ads
	lookups := float64(da.Hits - ba.Hits + da.Misses - ba.Misses)
	out["adstore.hit_ratio"] = 1 // a resident source never misses and counts nothing
	if lookups > 0 {
		out["adstore.hit_ratio"] = float64(da.Hits-ba.Hits) / lookups
	}

	// Blocking-path self times, per recorded operation. Each is a span's
	// time minus what its children cover, so they add up to the
	// operation without counting anything twice.
	var layerSum float64

	if isQuery {
		out["accumulator.prove_ms_per_query"] = perT(proveNs)
		out["accumulator.prove_calls_per_query"] = ratio(float64(proveCalls), nT)
		out["accumulator.verify_batch_ms_per_query"] = perT(batchNs)
		out["accumulator.verify_checks_per_query"] = ratio(float64(checks), nT)
		out["proofs.computed_per_query"] = ratio(float64(dp.Proofs-bp.Proofs), ops)

		// Proving and reading never overlap (the proofs of a walk run
		// after it), so their cover inside the SP call is the two summed.
		inSP := covered(sps, proves) + covered(sps, reads)
		pageIn := recDecNs + adsVerNs // replayed: inside the walk where no seam reaches
		walk := spNs - inSP - pageIn
		accInVerify := covered(verifies, tr.named(spanVerifyBatch, spanVerifyOne, spanAccSetup))
		out["core.sp_ms_per_query"] = perT(spNs)
		out["core.walk_ms_per_query"] = perT(walk)
		out["core.verify_ms_per_query"] = perT(verifyNs)
		out["core.verify_self_ms_per_query"] = perT(verifyNs - accInVerify)
		out["core.vo_encode_ms_per_query"] = perT(encNs)
		out["core.vo_decode_ms_per_query"] = perT(decNs)
		out["core.results_per_query"] = ratio(m.extra["results"], ops)
		out["core.record_decode_ms_per_pagein"] = mean(recDecNs, recDecCalls)
		out["core.ads_verify_ms_per_pagein"] = mean(adsVerNs, adsVerCalls)

		out["adstore.lookups_per_query"] = ratio(lookups, ops)
		out["adstore.decodes_per_query"] = ratio(float64(da.Decodes-ba.Decodes), ops)
		out["adstore.evictions_per_query"] = ratio(float64(da.Evictions-ba.Evictions), ops)
		out["storage.read_ms_per_pagein"] = mean(readNs, readCalls)
		out["storage.reads_per_query"] = ratio(float64(readCalls), nT)

		out["shard.parts_per_query"] = ratio(m.extra["parts"], ops)
		if e.name == "gob_sharded" {
			out["shard.sp_ms_per_query"] = perT(spNs)
		}

		overhead := perT(rttNs - covered(rtts, sps))
		if e.name == "http_hot" {
			out["gateway.http_overhead_ms_per_query"] = overhead
			out["gateway.body_decode_ms_per_query"] = perT(bodyNs)
			out["gateway.body_bytes_per_query"] = ratio(m.extra["body_bytes"], ops)
			out["gateway.shed_ratio"] = ratio(m.extra["shed"], ops)
			// On this path the client really decodes; the time is on the
			// blocking path, not a replay.
			layerSum += perT(bodyNs + decNs)
		} else {
			out["service.rpc_overhead_ms_per_query"] = overhead
			wire := float64(m.after.rd - m.before.rd + m.after.wr - m.before.wr)
			out["service.wire_bytes_per_query"] = ratio(wire, ops)
			out["service.wire_expansion"] = ratio(float64(m.after.rd-m.before.rd), m.bytes)
		}
		layerSum += overhead + perT(walk) + perT(inSP) + perT(pageIn) + perT(verifyNs)
	} else {
		mineNs, mineCalls, _ := total(tr.named(spanMine))
		appendNs, appendCalls, _ := total(tr.named(spanAppend))
		fsyncNs, _, _ := total(tr.named(spanFsync))
		recEncNs, recEncCalls, recEncBytes := total(tr.named(spanRecEncode))
		blocks := ops
		if e.name == "sub_stream" {
			blocks = m.extra["blocks"]
		}
		out["core.mine_ms_per_block"] = mean(mineNs, mineCalls)
		out["core.build_ms_per_block"] = ratio(ms(m.after.build-m.before.build), blocks)
		out["core.record_encode_ms_per_block"] = mean(recEncNs, recEncCalls)
		out["core.record_bytes_per_block"] = ratio(float64(recEncBytes), float64(recEncCalls))
		out["storage.append_ms_per_block"] = mean(appendNs, appendCalls)
		out["storage.fsync_ms_per_block"] = ratio(nsToMs(fsyncNs), float64(appendCalls))
		layerSum += out["core.build_ms_per_block"] + out["core.record_encode_ms_per_block"] + out["storage.append_ms_per_block"]
		if e.name == "mine_durable" {
			out["storage.write_amp"] = ratio(m.bytes, m.extra["payload_bytes"])
			var reopenMs []float64
			for _, s := range tr.named(spanReopen) {
				reopenMs = append(reopenMs, nsToMs(s.dur()))
			}
			out["storage.reopen_ms"] = median(reopenMs)
		} else {
			procNs, procCalls, _ := total(tr.named(spanProcess))
			pubNs, pubCalls, _ := total(tr.named(spanPubVerify))
			out["subscribe.process_ms_per_block"] = mean(procNs, procCalls)
			out["subscribe.pubs_per_block"] = ratio(ops, blocks)
			out["subscribe.proofs_per_block"] = ratio(float64(dp.Proofs-bp.Proofs), blocks)
			out["subscribe.client_verify_ms_per_pub"] = mean(pubNs, pubCalls)
			out["service.push_bytes_per_block"] = ratio(float64(m.after.rd-m.before.rd), blocks)
			layerSum += out["subscribe.process_ms_per_block"]
		}
	}
	out["service.header_sync_ms"] = ms(e.headerSync)
	out["harness.probe_ms"] = m.probeMs

	if p, err := percentile(m.late, 95); err == nil {
		out["loadgen.late_p95_ms"] = p
	}
	plain, traced := m.latencies(false), m.latencies(true)
	out["trace.op_p50_ms"] = median(plain)
	if p, err := percentile(plain, 95); err == nil {
		out["trace.p95_ms"] = p
	}
	out["trace.layer_sum_ratio"] = ratio(layerSum, ratio(sum(traced), nT))
	out["trace.overhead_ratio"] = ratio(median(traced), median(plain))
	return out
}

// cryptoMicro times the primitives under every accumulator operation,
// on fixed inputs and one goroutine.
func cryptoMicro(preset string) map[string]float64 {
	pr := pairing.ByName(preset)
	// per is the fastest of n rounds' time for one call, in ms; a round
	// makes reps calls so that it is long enough to time. Interference
	// from the host only ever adds time, so the minimum is the estimate
	// of what the code itself costs.
	per := func(n, reps int, f func()) float64 {
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			for j := 0; j < reps; j++ {
				f()
			}
			best = min(best, ms(time.Since(t0))/float64(reps))
		}
		return best
	}
	k := pr.RandScalar([]byte("benchmark/scalar"))
	a, b := pr.F.NewElt(pr.RandScalar([]byte("benchmark/a"))), pr.F.NewElt(pr.RandScalar([]byte("benchmark/b")))
	const n = 256
	points, scalars := make([]ec.Point, n), make([]*big.Int, n)
	p := pr.G
	for i := range points {
		points[i], scalars[i] = p, pr.RandScalar([]byte{byte(i), byte(i >> 8)})
		p = pr.C.Add(p, pr.G)
	}
	g2 := pr.C.Double(pr.G)
	return map[string]float64{
		"crypto.fp_mul_ns":    1e6 * per(40, 1000, func() { a = pr.F.Mul(a, b) }),
		"crypto.scalarmul_ms": per(30, 1, func() { pr.C.ScalarMul(pr.G, k) }),
		"crypto.msm256_ms":    per(4, 1, func() { pr.C.MultiScalarMul(points, scalars) }),
		"crypto.pairing_ms":   per(12, 1, func() { pr.Pair(pr.G, g2) }),
	}
}
