package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	tdx "repro"
	"repro/internal/chase"
	"repro/internal/jsonio"
	"repro/internal/logic"
	"repro/internal/normalize"
	"repro/internal/parser"
	"repro/internal/workload"
)

// chase-batch: the `tdx chase -json` pipeline called in-process —
// ParseSource of facts text, Run, WriteJSON — over eight seeded taxi
// documents of about 2.2k source facts. No HTTP, no cache, no disk: the
// chase layers do almost all the work.

const (
	batchDocs    = 8
	batchDrivers = 150 // about 2.2k source facts per document
	// batchRate is the open-loop rate, fixed here and never searched
	// for: at most 40% of the slowest raw ops_per_s measured (see plan.rate).
	batchRate = 3.2
)

type batchState struct {
	ex    *tdx.Exchange
	texts []string
	refs  [][32]byte // sha256 of each document's JSON from a workers=1 Run
}

// batchSetup generates the documents, compiles the mapping and runs the
// warm-up pass at workers=1, whose JSON hashes are the reference every
// measured op is checked against.
func (b *bench) batchSetup() (*batchState, error) {
	ctx := context.Background()
	m := workload.TaxiMapping()
	ex, err := tdx.Compile(parser.FormatMapping(m, nil))
	if err != nil {
		return nil, err
	}
	st := &batchState{ex: ex}
	for i := 0; i < batchDocs; i++ {
		src := workload.Taxi(workload.TaxiConfig{Seed: subSeed(b.seed, i), Drivers: batchDrivers, Cabs: batchDrivers * 2 / 5, Span: 100})
		text := parser.FormatFacts(src)
		sum, err := batchPipeline(ctx, ex, text, tdx.WithParallelism(1))
		if err != nil {
			return nil, err
		}
		st.texts = append(st.texts, text)
		st.refs = append(st.refs, sum)
	}
	return st, nil
}

// batchPipeline is one op: parse, chase, encode into a hash.
func batchPipeline(ctx context.Context, ex *tdx.Exchange, text string, opts ...tdx.Option) ([32]byte, error) {
	var sum [32]byte
	src, err := ex.ParseSource(text)
	if err != nil {
		return sum, err
	}
	sol, err := ex.Run(ctx, src, opts...)
	if err != nil {
		return sum, err
	}
	h := sha256.New()
	if err := sol.WriteJSON(h); err != nil {
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}

// batchOp returns an op that walks the documents round-robin and checks
// each output hash.
func (st *batchState) batchOp(opts ...tdx.Option) opFunc {
	return func(_ int, n int64) error {
		k := int(n % int64(len(st.texts)))
		sum, err := batchPipeline(context.Background(), st.ex, st.texts[k], opts...)
		if err != nil {
			return err
		}
		if sum != st.refs[k] {
			return wrongf("chase-batch doc %d: JSON differs from the workers=1 reference", k)
		}
		return nil
	}
}

func runChaseBatch(b *bench) (map[string]float64, error) {
	out := map[string]float64{}
	if b.trace {
		st, err := b.batchSetup()
		if err != nil {
			return nil, err
		}
		return out, b.batchTraced(st, out)
	}
	var first *batchState
	st, setupS, err := timeSetup(b, 3, func(int) (*batchState, error) {
		st, err := b.batchSetup()
		if err == nil && first != nil {
			for k := range st.refs {
				if st.refs[k] != first.refs[k] {
					b.fail(true, "chase-batch doc %d: setups disagree", k)
				}
			}
		}
		if first == nil {
			first = st
		}
		return st, err
	}, func(*batchState) {})
	if err != nil {
		return nil, err
	}
	out["setup_s"] = setupS
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	cpu0, probe0 := selfCPU(), b.speed.cpu
	m := b.measure(plan{latency: 0.5, throughput: 0.2, open: 0.3, rate: batchRate},
		phaseOps{latency: st.batchOp(), throughput: st.batchOp(tdx.WithParallelism(1)), cycle: batchDocs})
	cpu := selfCPU() - cpu0 - (b.speed.cpu - probe0)
	m.endToEnd(out)
	out["cpu_ms_per_op"] = ms(cpu) / float64(m.ops())
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out["peak_rss_mb"] = rss
	logf("chase-batch: %d latency, %d throughput, %d open-loop ops in %.1fs", len(m.lat), m.thruOps, len(m.open), m.phaseTime.Seconds())
	return out, nil
}

// batchTraced alternates untraced ops with ops decomposed into their
// layer calls, then probes the layers an op cannot split: source
// normalization (inside the tgd-only run) and the egd phase's first
// renormalization.
func (b *bench) batchTraced(st *batchState, out map[string]float64) error {
	ctx := context.Background()
	full := workload.TaxiMapping()
	tgdOnly := *full
	tgdOnly.EGDs = nil
	tgdEx, err := tdx.FromMapping(&tgdOnly)
	if err != nil {
		return err
	}
	cm, err := chase.CompileMapping(full)
	if err != nil {
		return err
	}
	egdBodies := make([]logic.Conjunction, len(full.EGDs))
	for i, d := range full.EGDs {
		egdBodies[i] = d.ConcreteBody()
	}
	workers := runtime.GOMAXPROCS(0)
	var (
		homs, fires, merges, rnds atomic.Int64
		encBytes                  atomic.Int64
	)
	traced := func(_ int, n int64) error {
		i := int(n % int64(len(st.texts)))
		op := b.tr.newOp()
		root := b.tr.begin("op", op, -1)
		defer b.tr.end(root)
		s := b.tr.begin("parser", op, root)
		src, err := st.ex.ParseSource(st.texts[i])
		b.tr.end(s)
		if err != nil {
			return err
		}
		s = b.tr.begin("chase.tgd", op, root)
		tsol, err := tgdEx.Run(ctx, src)
		b.tr.end(s)
		if err != nil {
			return err
		}
		s = b.tr.begin("chase.egd", op, root)
		res, stats, err := chase.EgdPhaseCompiled(tsol.Concrete(), cm, &chase.Options{Workers: workers, Ctx: ctx})
		b.tr.end(s)
		if err != nil {
			return err
		}
		s = b.tr.begin("jsonio.encode", op, root)
		h := sha256.New()
		cw := &countWriter{w: h}
		err = jsonio.EncodeTo(cw, res)
		b.tr.end(s)
		if err != nil {
			return err
		}
		var sum [32]byte
		h.Sum(sum[:0])
		if sum != st.refs[i] {
			return wrongf("chase-batch doc %d: decomposed pipeline JSON differs from Run's", i)
		}
		ts := tsol.Stats()
		homs.Add(int64(ts.TGDHoms))
		fires.Add(int64(ts.TGDFires))
		merges.Add(int64(stats.EgdMerges))
		rnds.Add(int64(stats.EgdRounds))
		encBytes.Add(cw.n)
		return nil
	}
	// The untraced ops also count the runtime's allocations and GC CPU,
	// read from cumulative counters that do not stop the world.
	plain := st.batchOp()
	var rt runtimeCounts
	untracedOp := func(c int, n int64) error {
		r0 := readRuntime()
		err := plain(c, n)
		rt.add(readRuntime().sub(r0))
		return err
	}
	untraced := b.alternate(nil, untracedOp, traced, batchDocs)
	n := float64(len(untraced))
	out["runtime.allocs_per_op"] = rt.objects / n
	out["runtime.alloc_mb_per_op"] = rt.bytes / n / (1 << 20)
	out["runtime.gc_cpu_share"] = rt.gcCPU / rt.totalCPU

	// Probes: one pass over the documents each.
	var normMs, renormMs, srcFacts, normFacts float64
	for i, text := range st.texts {
		op := b.tr.newOp()
		src, err := st.ex.ParseSource(text)
		if err != nil {
			return err
		}
		s := b.tr.begin("normalize", op, -1)
		t0 := time.Now()
		norm, err := st.ex.Normalize(ctx, src)
		normMs += ms(time.Since(t0))
		b.tr.end(s)
		if err != nil {
			return err
		}
		srcFacts += float64(src.Len())
		normFacts += float64(norm.Len())
		tsol, err := tgdEx.Run(ctx, src)
		if err != nil {
			return err
		}
		s = b.tr.begin("chase.egd.renorm", op, -1)
		t0 = time.Now()
		_, err = normalize.ForEgdPhaseWorkers(ctx, tsol.Concrete(), egdBodies, normalize.StrategySmart, workers)
		renormMs += ms(time.Since(t0))
		b.tr.end(s)
		if err != nil {
			return fmt.Errorf("doc %d renormalization: %w", i, err)
		}
	}
	docs := float64(len(st.texts))
	r := b.tr.rollup()
	ops := float64(r.count["op"])
	parse := r.perOp("parser")
	tgd := r.perOp("chase.tgd") - normMs/docs
	egd := r.perOp("chase.egd")
	enc := r.perOp("jsonio.encode")
	out["parser.ms_per_op"] = parse
	out["normalize.ms_per_op"] = normMs / docs
	out["normalize.fragment_ratio"] = normFacts / srcFacts
	out["chase.tgd.ms_per_op"] = tgd
	out["chase.tgd.fire_ratio"] = float64(fires.Load()) / float64(homs.Load())
	out["chase.egd.ms_per_op"] = egd
	out["chase.egd.renorm_ms_per_op"] = renormMs / docs
	out["chase.egd.merges_per_op"] = float64(merges.Load()) / ops
	out["chase.egd.rounds_per_op"] = float64(rnds.Load()) / ops
	out["jsonio.encode.ms_per_op"] = enc
	out["jsonio.encode.bytes_per_op"] = float64(encBytes.Load()) / ops
	out["server.rejected_ratio"] = 0 // no server on this path
	accounting(out, mean(untraced), r.meanDur("op"), parse, normMs/docs, tgd, egd, enc)
	logf("chase-batch traced: %d untraced and %d traced ops", len(untraced), r.count["op"])
	return nil
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// runtimeCounts are cumulative runtime counters: heap allocations and
// the runtime's estimates of GC and total CPU time.
type runtimeCounts struct {
	objects, bytes, gcCPU, totalCPU float64
}

// readRuntime reads the counters through runtime/metrics, which does not
// stop the world.
func readRuntime() runtimeCounts {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounts{
		objects:  float64(s[0].Value.Uint64()),
		bytes:    float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

func (a runtimeCounts) sub(b runtimeCounts) runtimeCounts {
	return runtimeCounts{a.objects - b.objects, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *runtimeCounts) add(b runtimeCounts) {
	a.objects += b.objects
	a.bytes += b.bytes
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}
