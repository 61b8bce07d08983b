package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	tdx "repro"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/paperex"
)

// session-append: the write path. Each of nproc clients appends to its
// own employment sessions, opened over bases of about 2.4k source
// facts; each append holds 2–32 facts. Every client owns sessBases fixed
// seeded bases and a fixed stream of sessAppends deltas per base. It
// works through one base's stream in one session, then deletes that
// session and reopens over its next base, so sessions stay near the
// base size however long a run is, and a faster host or program opens
// no more distinct bases than a slower one. Setup opens every base
// once, which fills the daemon's run cache with them: every later open
// is a snapshot load, untimed upkeep rather than an op sample. A
// session reopened from a snapshot retains no chase state, so its first
// append re-chases base plus delta in full.
//
// Seven appends in eight are plain: new-hire (E, S) pairs and job moves
// of base persons without a salary to companies new to the base, so no
// delta fact joins a base fact and the delta chase stays incremental.
// Every eighth append joins base facts: it moves salaried base persons
// into companies they already worked for, over part of their salary's
// interval, so sigma2 joins delta E facts with base S facts and the
// salary egd merges into base rows. A delta that joins base facts
// refragments them, and the daemon answers it with the full re-chase
// fallback; with the first append of every reopened session, about
// one append in six takes it.
// After the timed phases the daemon is SIGKILLed, restarted from
// -state, and every live session is checked against a full re-chase of
// its base plus its acknowledged deltas.
//
// Appends of 128 or more facts are deliberately absent: above the
// parallel delta cutoff a multi-core daemon can die of a data race in
// the delta chase. This workload is no evidence that path is healthy.

const (
	sessPersons = 500 // about 2.4k source facts per base
	sessBases   = 2   // fixed bases per client
	sessAppends = 32  // appends per session before it is reopened over the client's next base
	sessWarm    = 8   // warm-up appends per base in setup
	// sessRate is the open-loop rate, fixed here and never searched
	// for: at most 40% of the slowest raw ops_per_s measured (see plan.rate).
	sessRate = 16.0
)

// sessBase is one fixed base document and the deltas appended to it.
type sessBase struct {
	body   []byte   // base document as posted
	deltas [][]byte // the sessAppends delta bodies, in order
}

// newSessBase generates base k of client c and its delta stream.
func newSessBase(set *setting, seed int64, c, k int) (*sessBase, error) {
	seed = subSeed(seed, 2000+c*sessBases+k)
	src := set.gen(seed, sessPersons*49/10)
	body, err := tdx.NewInstance(src).JSON()
	if err != nil {
		return nil, err
	}
	g := &deltaGen{rng: rand.New(rand.NewSource(seed)), hirePrefix: fmt.Sprintf("h%d.%d.", c, k),
		salary: map[string]interval.Interval{}, jobs: map[string][]string{}}
	src.EachFact(func(f fact.CFact) bool {
		name := f.Args[0].String()
		switch f.Rel {
		case "S":
			g.salary[name] = f.T
		case "E":
			g.jobs[name] = append(g.jobs[name], f.Args[1].String())
		}
		return true
	})
	for p := 0; p < sessPersons; p++ {
		if name := fmt.Sprintf("p%d", p); g.salary[name] != (interval.Interval{}) {
			g.paid = append(g.paid, name)
		} else {
			g.unpaid = append(g.unpaid, name)
		}
	}
	b := &sessBase{body: body}
	for j := 0; j < sessAppends; j++ {
		d, err := g.next(instance.NewConcrete(set.ex.Mapping().Source), j%8 == 7)
		if err != nil {
			return nil, err
		}
		b.deltas = append(b.deltas, d)
	}
	return b, nil
}

// deltaGen draws one base's delta stream.
type deltaGen struct {
	rng          *rand.Rand
	hirePrefix   string
	hires        int
	paid, unpaid []string                     // base persons with and without a salary fact
	salary       map[string]interval.Interval // each salaried person's salary interval
	jobs         map[string][]string          // each base person's companies
}

// next draws a delta of 2–32 facts into c, an empty source instance:
// new hires (an E and an S fact each) plus at least one job move, of a
// person without a salary to a company new to the base or, when join is
// set, of a salaried person into a company of theirs during their
// salary. A person keeps at most one salary, so no append can make the
// chase fail.
func (g *deltaGen) next(c *instance.Concrete, join bool) ([]byte, error) {
	r := g.rng
	n := 2 + r.Intn(31)
	hires := r.Intn(n / 2)
	for i := 0; i < hires; i++ {
		name := paperex.C(fmt.Sprintf("%s%d", g.hirePrefix, g.hires))
		g.hires++
		t := interval.Time(r.Intn(90))
		c.MustInsert(fact.NewC("E", interval.MustNew(t, t+1+interval.Time(r.Intn(20))), name, paperex.C(fmt.Sprintf("c%d", r.Intn(250)))))
		s := t + interval.Time(r.Intn(5))
		c.MustInsert(fact.NewC("S", interval.MustNew(s, s+1+interval.Time(r.Intn(30))), name, paperex.C(fmt.Sprintf("%dk", 10+r.Intn(90)))))
	}
	for i := 0; i < n-2*hires; i++ {
		if !join {
			t := interval.Time(r.Intn(95))
			c.MustInsert(fact.NewC("E", interval.MustNew(t, t+1+interval.Time(r.Intn(10))),
				paperex.C(g.unpaid[r.Intn(len(g.unpaid))]), paperex.C(fmt.Sprintf("new%d", r.Intn(50)))))
			continue
		}
		p := g.paid[r.Intn(len(g.paid))]
		jobs := g.jobs[p]
		sal := g.salary[p]
		t := sal.Start + interval.Time(r.Intn(int(sal.End-sal.Start)))
		c.MustInsert(fact.NewC("E", interval.MustNew(t, t+1), paperex.C(p), paperex.C(jobs[r.Intn(len(jobs))])))
	}
	return tdx.NewInstance(c).JSON()
}

// liveSession is a client's current session: the base it was opened
// over and how many of that base's deltas it has acknowledged.
type liveSession struct {
	id    string
	base  *sessBase
	acked int
}

func (ls *liveSession) deltas() [][]byte { return ls.base.deltas[:ls.acked] }

type sessState struct {
	d      *daemon
	hash   string
	set    *setting
	client *http.Client
	bases  [nproc][sessBases]*sessBase
	mu     sync.Mutex
	next   [nproc]int          // index of the base each client opens next
	live   [nproc]*liveSession // a client index is used by one goroutine at a time
	bytes  int64               // delta body bytes acknowledged
	// Per-append head fields, for the per-layer metrics.
	samples []sessSample
}

type sessSample struct {
	rtt, elapsed      float64
	deltaFacts, fires float64
	fallback          bool
	ttfb, total       time.Duration
}

// open deletes client c's session, if any, and opens one over the
// client's next base.
func (s *sessState) open(c int) error {
	if old := s.live[c]; old != nil {
		if err := del(s.client, s.d.url("/v1/sessions/"+old.id)); err != nil {
			return err
		}
	}
	base := s.bases[c][s.next[c]]
	s.next[c] = (s.next[c] + 1) % sessBases
	r, err := post(s.client, s.d.url("/v1/exchanges/"+s.hash+"/sessions"), "application/json", base.body)
	if err != nil {
		return err
	}
	id, err := jsonString(r.body, "sessionId")
	if err != nil {
		return err
	}
	s.live[c] = &liveSession{id: id, base: base}
	return nil
}

// prep reopens client c's session once it has taken sessAppends appends.
func (s *sessState) prep(c int) error {
	if ls := s.live[c]; ls == nil || ls.acked >= sessAppends {
		return s.open(c)
	}
	return nil
}

// do appends client c's next delta and records the head fields.
func (s *sessState) do(c int) (sessSample, error) {
	ls := s.live[c]
	body := ls.base.deltas[ls.acked]
	t0 := time.Now()
	r, err := post(s.client, s.d.url("/v1/sessions/"+ls.id+"/facts"), "application/json", body)
	rtt := time.Since(t0)
	if err != nil {
		return sessSample{}, err
	}
	ls.acked++
	sm := sessSample{rtt: ms(rtt), fallback: jsonBool(r.body, "fallbackFullChase"), ttfb: r.ttfb, total: r.total}
	for _, f := range []struct {
		name string
		v    *float64
	}{{"elapsedMs", &sm.elapsed}, {"deltaFacts", &sm.deltaFacts}, {"deltaFires", &sm.fires}} {
		if *f.v, err = jsonNumber(r.body, f.name); err != nil {
			return sm, wrongf("append response: %v", err)
		}
	}
	s.mu.Lock()
	s.bytes += int64(len(body))
	s.samples = append(s.samples, sm)
	s.mu.Unlock()
	return sm, nil
}

func (s *sessState) op(c int, _ int64) error {
	_, err := s.do(c)
	return err
}

func runSessionAppend(b *bench) (map[string]float64, error) {
	set, err := employmentSetting()
	if err != nil {
		return nil, err
	}
	var bases [nproc][sessBases]*sessBase
	for c := range bases {
		for k := range bases[c] {
			if bases[c][k], err = newSessBase(set, b.seed, c, k); err != nil {
				return nil, err
			}
		}
	}
	client := newClient()
	setup := func(i int) (*sessState, error) {
		d, err := b.startDaemon(fmt.Sprintf("tdxd-sess-%d", i), filepath.Join(b.work, fmt.Sprintf("sess-%d", i)))
		if err != nil {
			return nil, err
		}
		st := &sessState{d: d, set: set, client: client, bases: bases}
		hashes, err := register(client, d, []*setting{set})
		if err == nil {
			st.hash = hashes[set.name]
			err = st.warm()
		}
		if err != nil {
			d.kill()
			return nil, err
		}
		return st, nil
	}
	teardown := func(st *sessState) {
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
	defer func() { teardown(st) }()
	out := map[string]float64{}
	if b.trace {
		if err := b.sessTraced(st, out); err != nil {
			return nil, err
		}
	} else {
		out["setup_s"] = setupS
		if err := b.measureServer(phaseOps{latency: st.op, prep: st.prep}, sessRate, []*daemon{st.d}, out); err != nil {
			return nil, err
		}
	}
	// Crash and warm restart: every live session must come back equal
	// to a full re-chase of its base and acknowledged deltas.
	st.d.kill()
	d, err := b.restart("tdxd-sess-restart", st.d)
	if err != nil {
		return nil, err
	}
	st.d = d
	for c, ls := range st.live {
		b.record(st.verify(ls, c))
	}
	return out, nil
}

// warm opens a session over every base of every client, which chases
// each base once and leaves it in the daemon's run cache, and appends
// sessWarm deltas to each. Each client ends on a live session over its
// last base.
func (s *sessState) warm() error {
	for c := 0; c < nproc; c++ {
		for k := 0; k < sessBases; k++ {
			if err := s.open(c); err != nil {
				return err
			}
			for i := 0; i < sessWarm; i++ {
				if _, err := s.do(c); err != nil {
					return err
				}
			}
		}
	}
	s.samples = nil
	s.bytes = 0
	return nil
}

// verify compares a session served by the restarted daemon with the
// library's full chase of base + acknowledged deltas. A duplicate fact
// posted with ?solution=true returns the session's solution and its
// diff against the persisted one, which must be empty.
func (s *sessState) verify(ls *liveSession, c int) error {
	ctx := context.Background()
	ex := s.set.ex
	src, err := ex.DecodeSourceJSON(bytes.NewReader(ls.base.body))
	if err != nil {
		return err
	}
	var first *fact.CFact
	src.Concrete().EachFact(func(f fact.CFact) bool {
		first = &f
		return false
	})
	for _, body := range ls.deltas() {
		d, err := ex.DecodeSourceJSON(bytes.NewReader(body))
		if err != nil {
			return err
		}
		d.Concrete().EachFact(func(f fact.CFact) bool {
			_, err = src.Concrete().Insert(f)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		return err
	}
	want, err := compactJSON(sol.JSON())
	if err != nil {
		return err
	}
	dup := instance.NewConcrete(ex.Mapping().Source)
	dup.MustInsert(*first)
	body, err := tdx.NewInstance(dup).JSON()
	if err != nil {
		return err
	}
	r, err := post(s.client, s.d.url("/v1/sessions/"+ls.id+"/facts?solution=true"), "application/json", body)
	if err != nil {
		return fmt.Errorf("client %d session after restart: %w", c, err)
	}
	if !bytes.Contains(r.body, []byte(`"addedFacts":0,"removedFacts":0`)) {
		return wrongf("client %d session %s: the restarted solution differs from the persisted one", c, ls.id)
	}
	if err := checkField(r.body, "solution", want); err != nil {
		return wrongf("client %d session %s after restart (%d deltas): %v", c, ls.id, ls.acked, err)
	}
	return nil
}

// sessTraced alternates untraced and traced appends, then replays the
// acknowledged deltas in-process to time JSON decoding and snapshot
// writes on their own.
func (b *bench) sessTraced(s *sessState, out map[string]float64) error {
	traced := func(c int, _ int64) error {
		return b.traceReply(func() (reply, error) {
			sm, err := s.do(c)
			return reply{ttfb: sm.ttfb, total: sm.total}, err
		})
	}
	before, err := scrapeAll(s.client, []*daemon{s.d})
	if err != nil {
		return err
	}
	w0, err := writeBytes(s.d.pid())
	if err != nil {
		return err
	}
	untraced := b.alternate(s.prep, s.op, traced, 1)
	w1, err := writeBytes(s.d.pid())
	if err != nil {
		return err
	}
	after, err := scrapeAll(s.client, []*daemon{s.d})
	if err != nil {
		return err
	}
	var rtt, elapsed, facts, fires, fallbacks float64
	for _, sm := range s.samples {
		rtt += sm.rtt
		elapsed += sm.elapsed
		facts += sm.deltaFacts
		fires += sm.fires
		if sm.fallback {
			fallbacks++
		}
	}
	n := float64(len(s.samples))
	out["session.delta_ms"] = elapsed / n
	out["session.other_ms"] = (rtt - elapsed) / n
	out["session.fallback_ratio"] = fallbacks / n
	out["chase.delta.fires_per_fact"] = fires / facts
	out["snapshot.bytes_written_per_delta_byte"] = (w1 - w0) / float64(s.bytes)
	out["server.rejected_ratio"] = (after["tdxd_rejected_chases_total"] - before["tdxd_rejected_chases_total"]) / n
	r := b.tr.rollup()
	ttfb := r.perOp("server.ttfb")
	body := r.perOp("server.body")
	out["server.ttfb_ms"] = ttfb
	out["server.body_ms"] = body
	accounting(out, mean(untraced), r.meanDur("op"), ttfb, body)

	// Replay every base's delta stream in-process — decode, RunDelta,
	// and a snapshot write of the grown session, as the daemon does.
	ctx := context.Background()
	ex := s.set.ex
	var decodeMs, writeMs float64
	var writes int
	path := filepath.Join(b.work, "replay.snap")
	for c := range s.bases {
		for _, base := range s.bases[c] {
			src, err := ex.DecodeSourceJSON(bytes.NewReader(base.body))
			if err != nil {
				return err
			}
			sol, err := ex.Run(ctx, src)
			if err != nil {
				return err
			}
			for _, body := range base.deltas {
				op := b.tr.newOp()
				t0 := time.Now()
				d, err := ex.DecodeSourceJSON(bytes.NewReader(body))
				t1 := time.Now()
				if err != nil {
					return err
				}
				b.tr.record("jsonio.decode", op, -1, t0, t1)
				decodeMs += ms(t1.Sub(t0))
				if sol, _, err = ex.RunDelta(ctx, sol, d); err != nil {
					return err
				}
				t2 := time.Now()
				if err := sol.WriteSnapshotFile(path); err != nil {
					return err
				}
				t3 := time.Now()
				b.tr.record("snapshot.write", op, -1, t2, t3)
				writeMs += ms(t3.Sub(t2))
				writes++
			}
		}
	}
	out["jsonio.decode.ms_per_op"] = decodeMs / float64(writes)
	out["snapshot.write_ms_per_op"] = writeMs / float64(writes)
	logf("traced: %d untraced and %d traced appends, %d replayed", len(untraced), r.count["op"], writes)
	return nil
}
