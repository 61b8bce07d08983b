package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// serve-hot: one tdxd with the employment, medical and taxi mappings
// registered, serving a seeded Zipf draw over a pool of 48 documents
// whose solutions range from about 1k to 10k facts (the largest stream
// past the 4096-fact threshold). The op mix is /run, /run?query= and
// /answer. Setup's warm-up pass fills the run cache, so in steady state
// every op is a snapshot load: the read path, where the chase does no
// work.

const (
	hotDocs = 48
	// hotRate is the open-loop rate, fixed here and never searched
	// for: at most 40% of the slowest raw ops_per_s measured (see plan.rate).
	hotRate = 18.0
)

// poolSizes returns n solution sizes spread log-uniformly from 1k to
// 10k facts, the range the workload is defined over: size k is
// 1000·10^(k/(n-1)); for n = 16, 6 of them stream past the 4096-fact
// threshold.
func poolSizes(n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = int(1000 * math.Pow(10, float64(k)/float64(n-1)))
	}
	return out
}

// pool is a set of documents drawn by a seeded Zipf law over rank.
type pool struct {
	docs []*doc // by rank, most popular first
}

// newPool builds n documents, cycling through the settings by rank and
// spreading the sizes over the ranks so popular documents are neither
// all small nor all large. Each document's content comes from the seed.
func (b *bench) newPool(settings []*setting, n int) (*pool, error) {
	per := (n + len(settings) - 1) / len(settings)
	sizes := poolSizes(per)
	t0 := time.Now()
	defer func() { logf("library outputs for %d documents in %.1fs", n, time.Since(t0).Seconds()) }()
	p := &pool{docs: make([]*doc, n)}
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := c; r < n; r += nproc {
				s := settings[r%len(settings)]
				k := (r / len(settings) * 7) % per
				d, err := newDoc(context.Background(), s, subSeed(b.seed, 100+r), sizes[k])
				if err != nil {
					errs[c] = err
					return
				}
				p.docs[r] = d
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// register posts every setting's mapping text to d and returns the
// exchange hashes by setting name.
func register(c *http.Client, d *daemon, settings []*setting) (map[string]string, error) {
	hashes := map[string]string{}
	for _, s := range settings {
		r, err := post(c, d.url("/v1/mappings"), "text/plain", []byte(s.text))
		if err != nil {
			return nil, err
		}
		h, err := jsonString(r.body, "hash")
		if err != nil {
			return nil, err
		}
		hashes[s.name] = h
	}
	return hashes, nil
}

// jsonString reads a top-level string field of a small JSON head.
func jsonString(body []byte, name string) (string, error) {
	key := []byte(`"` + name + `":"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return "", fmt.Errorf("no %q in %.200s", name, body)
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("unterminated %q", name)
	}
	return string(rest[:j]), nil
}

// jsonNumber reads the first occurrence of a numeric field.
func jsonNumber(body []byte, name string) (float64, error) {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, fmt.Errorf("no %q", name)
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, fmt.Errorf("unterminated %q", name)
	}
	return strconv.ParseFloat(string(rest[:j]), 64)
}

// jsonBool reads the first occurrence of a boolean field.
func jsonBool(body []byte, name string) bool {
	return bytes.Contains(body, []byte(`"`+name+`":true`))
}

// hotKind is one op of the serving mix.
type hotKind int

const (
	kindRun hotKind = iota
	kindRunQuery
	kindAnswer
)

// hotSample is what one serving op saw, kept for the per-layer metrics.
type hotSample struct {
	reply
	node int // index of the daemon that was asked
}

// mixItem is one op of the serving mix.
type mixItem struct {
	doc  *doc
	kind hotKind
}

// newMix builds one cycle of the serving mix. Nothing in the
// repository records real traffic, so its shape is an assumption, kept
// as plain as the workload's definition allows: a Zipf law over
// popularity rank with exponent 1, the document of rank r (from 0)
// appearing round(24/(r+1)) times, at least once; and the three
// endpoints in equal shares, each document's occurrences taking their
// op kinds in turn from run, run?query= and answer. The seed shuffles
// the cycle. Phases run whole cycles, so every seed sends the same mix;
// drawing each op independently instead left p90 and the open-loop p50
// at the mercy of how many large documents a run drew.
func newMix(p *pool, seed int64) []mixItem {
	kinds := []hotKind{kindRun, kindRunQuery, kindAnswer}
	var mix []mixItem
	for r, d := range p.docs {
		m := max(1, int(math.Round(24/float64(r+1))))
		for j := 0; j < m; j++ {
			mix = append(mix, mixItem{doc: d, kind: kinds[(r+j)%len(kinds)]})
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1000)))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// hotOps issues the serving mix; op n of a phase is mix item n mod the
// cycle, sent to the daemon target picks. Every response is checked
// against the library.
type hotOps struct {
	client *http.Client
	mix    []mixItem
	hashes map[string]string
	target func(n int64) (*daemon, int)
}

func newHotOps(b *bench, client *http.Client, p *pool, hashes map[string]string, target func(int64) (*daemon, int)) *hotOps {
	return &hotOps{client: client, mix: newMix(p, b.seed), hashes: hashes, target: target}
}

func (h *hotOps) op(_ int, n int64) error {
	_, err := h.do(n)
	return err
}

// do issues op n and checks the response.
func (h *hotOps) do(n int64) (hotSample, error) {
	it := h.mix[n%int64(len(h.mix))]
	d, kind := it.doc, it.kind
	node, idx := h.target(n)
	path := "/v1/exchanges/" + h.hashes[d.set.name]
	switch kind {
	case kindRun:
		path += "/run"
	case kindRunQuery:
		path += "/run?query=" + d.set.query
	case kindAnswer:
		path += "/answer?query=" + d.set.query
	}
	r, err := post(h.client, node.url(path), "application/json", d.body)
	if err == nil && kind != kindAnswer {
		err = checkField(r.body, "solution", d.sol)
	}
	if err == nil && kind != kindRun {
		err = checkField(r.body, "answers", d.answers)
	}
	return hotSample{reply: r, node: idx}, err
}

// warm runs every document of p once through each daemon in nodes.
func (h *hotOps) warm(p *pool, nodes ...*daemon) error {
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(p.docs); i += nproc {
				d := p.docs[i]
				for _, n := range nodes {
					r, err := post(h.client, n.url("/v1/exchanges/"+h.hashes[d.set.name]+"/run"), "application/json", d.body)
					if err == nil {
						err = checkField(r.body, "solution", d.sol)
					}
					if err != nil {
						errs[c] = fmt.Errorf("warm-up doc %d: %w", i, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type hotState struct {
	d      *daemon
	hashes map[string]string
}

func runServeHot(b *bench) (map[string]float64, error) {
	settings, err := allSettings()
	if err != nil {
		return nil, err
	}
	p, err := b.newPool(settings, hotDocs)
	if err != nil {
		return nil, err
	}
	client := newClient()
	setup := func(i int) (*hotState, error) {
		state := filepath.Join(b.work, fmt.Sprintf("hot-%d", i))
		d, err := b.startDaemon(fmt.Sprintf("tdxd-hot-%d", i), state)
		if err != nil {
			return nil, err
		}
		hashes, err := register(client, d, settings)
		if err == nil {
			err = newHotOps(b, client, p, hashes, nil).warm(p, d)
		}
		if err != nil {
			d.kill()
			return nil, err
		}
		return &hotState{d: d, hashes: hashes}, nil
	}
	teardown := func(st *hotState) {
		st.d.kill()
		_ = os.RemoveAll(st.d.state)
	}
	reps := 3
	if b.trace {
		reps = 1
	}
	st, setupS, err := timeSetup(b, reps, setup, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown(st)
	ops := newHotOps(b, client, p, st.hashes, func(int64) (*daemon, int) { return st.d, 0 })
	out := map[string]float64{}
	if b.trace {
		return out, b.hotTraced(ops, []*daemon{st.d}, settings, out)
	}
	out["setup_s"] = setupS
	if err := b.measureServer(phaseOps{latency: ops.op, cycle: len(ops.mix)}, hotRate, []*daemon{st.d}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// measureServer runs the three end-to-end phases against daemons and
// fills the end-to-end metrics, CPU and peak memory summed over them.
func (b *bench) measureServer(ops phaseOps, rate float64, nodes []*daemon, out map[string]float64) error {
	for _, n := range nodes {
		if err := resetPeakRSS(n.pid()); err != nil {
			return err
		}
	}
	cpu0, err := cpuOf(nodes)
	if err != nil {
		return err
	}
	m := b.measure(plan{latency: 0.4, throughput: 0.3, open: 0.3, rate: rate}, ops)
	cpu1, err := cpuOf(nodes)
	if err != nil {
		return err
	}
	m.endToEnd(out)
	out["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(m.ops())
	var rss float64
	for _, n := range nodes {
		if !n.alive() {
			b.fail(false, "tdxd %s crashed: %v", n.addr, n.err)
			continue
		}
		v, err := peakRSSMB(n.pid())
		if err != nil {
			return err
		}
		rss += v
	}
	out["peak_rss_mb"] = rss
	logf("%d latency, %d throughput, %d open-loop ops in %.1fs; open-loop start lateness p50 %.2fms p90 %.2fms",
		len(m.lat), m.thruOps, len(m.open), m.phaseTime.Seconds(), quantile(m.late, 0.5), quantile(m.late, 0.9))
	return nil
}

// traceReply runs one HTTP op and records its span, split at the first
// response byte: server.ttfb until the response head arrived,
// server.body until the body was read.
func (b *bench) traceReply(do func() (reply, error)) error {
	op := b.tr.newOp()
	t0 := time.Now()
	r, err := do()
	end := time.Now()
	if err != nil {
		return err
	}
	root := b.tr.record("op", op, -1, t0, end)
	b.tr.record("server.ttfb", op, root, t0, t0.Add(r.ttfb))
	b.tr.record("server.body", op, root, t0.Add(r.ttfb), t0.Add(r.total))
	return nil
}

func cpuOf(nodes []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, n := range nodes {
		v, err := procCPU(n.pid())
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// hotTraced alternates untraced ops with traced ones, whose spans split
// each request at its first response byte, then probes the snapshot
// and query layers in-process over the daemon's own run snapshots.
func (b *bench) hotTraced(ops *hotOps, nodes []*daemon, settings []*setting, out map[string]float64) error {
	// One client at a time runs in these phases, so samples needs no lock.
	var samples []hotSample
	untracedOp := func(_ int, n int64) error {
		s, err := ops.do(n)
		if err == nil {
			samples = append(samples, s)
		}
		return err
	}
	traced := func(_ int, n int64) error {
		return b.traceReply(func() (reply, error) {
			s, err := ops.do(n)
			if err == nil {
				samples = append(samples, s)
			}
			return s.reply, err
		})
	}
	before, err := scrapeAll(ops.client, nodes)
	if err != nil {
		return err
	}
	t0 := time.Now()
	untraced := b.alternate(nil, untracedOp, traced, len(ops.mix))
	window := time.Since(t0).Seconds()
	after, err := scrapeAll(ops.client, nodes)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	runs := float64(len(samples))
	var elapsed, kb, streamed float64
	for _, s := range samples {
		e, err := jsonNumber(s.body, "elapsedMs")
		if err != nil {
			return err
		}
		elapsed += e
		kb += float64(len(s.body)) / 1024
		if s.chunked {
			streamed++
		}
	}
	r := b.tr.rollup()
	ttfb := r.perOp("server.ttfb")
	body := r.perOp("server.body")
	out["server.ttfb_ms"] = ttfb
	out["server.body_ms"] = body
	out["server.elapsed_ms"] = elapsed / runs
	out["server.resp_kb_per_op"] = kb / runs
	out["server.streamed_share"] = streamed / runs
	out["snapshot.hit_ratio"] = delta("tdxd_snapshot_loads_total") / runs
	out["server.rejected_ratio"] = delta("tdxd_rejected_chases_total") / runs
	accounting(out, mean(untraced), r.meanDur("op"), ttfb, body)
	if len(nodes) > 1 {
		var viaA, viaB []float64
		for _, s := range samples {
			if s.node == 0 {
				viaA = append(viaA, ms(s.total))
			} else {
				viaB = append(viaB, ms(s.total))
			}
		}
		out["fleet.forward_ratio"] = delta("tdxd_forwards_total") / runs
		out["fleet.hop_ms"] = median(viaB) - median(viaA)
		out["fleet.compiles"] = delta("tdxd_fleet_compiles_total")
		out["fleet.gossip_pkts_per_s"] = delta("tdxd_gossip_sent_total") / window
	}

	// Probes: load every run snapshot of the (first) daemon in-process
	// and evaluate the setting's query on it.
	byPrefix := map[string]*setting{}
	for _, s := range settings {
		byPrefix[ops.hashes[s.name][:16]] = s
	}
	files, err := filepath.Glob(filepath.Join(nodes[0].state, "runs", "*.snap"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no run snapshots under %s: %v", nodes[0].state, err)
	}
	var loadMs, queryMs float64
	ctx := context.Background()
	for _, f := range files {
		s := byPrefix[filepath.Base(f)[:16]]
		if s == nil {
			return fmt.Errorf("run snapshot %s names no registered exchange", f)
		}
		op := b.tr.newOp()
		t0 := time.Now()
		sol, err := s.ex.LoadSolution(f)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := s.ex.Query(ctx, sol, s.query); err != nil {
			return err
		}
		t2 := time.Now()
		b.tr.record("snapshot.load", op, -1, t0, t1)
		b.tr.record("query", op, -1, t1, t2)
		loadMs += ms(t1.Sub(t0))
		queryMs += ms(t2.Sub(t1))
	}
	out["snapshot.load_ms_per_op"] = loadMs / float64(len(files))
	out["query.ms_per_op"] = queryMs / float64(len(files))
	logf("traced: %d untraced and %d traced ops, %d snapshots probed", len(untraced), int(r.count["op"]), len(files))
	return nil
}
