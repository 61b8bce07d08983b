package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nproc is the client count of the throughput and open-loop phases: the
// load generator never holds more connections or threads than this.
const nproc = 2

// minLatencySamples is the floor on closed-loop latency samples per run,
// so p90 always has at least ten samples beyond it.
const minLatencySamples = 100

// opFunc performs op number n of its phase as client c; ops number from
// zero across the rounds of a phase. A non-nil error is a failed op.
type opFunc func(c int, n int64) error

// prepFunc is untimed upkeep client c runs before an op.
type prepFunc func(c int) error

// wrongOutput marks a failure where the program answered but its output
// differs from the library's.
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return e.msg }

func wrongf(format string, args ...any) error {
	return &wrongOutput{fmt.Sprintf(format, args...)}
}

// record counts one attempted op and its failure, if any.
func (b *bench) record(err error) {
	b.attempted.Add(1)
	if err != nil {
		var w *wrongOutput
		b.fail(errors.As(err, &w), "%v", err)
	}
}

// cursor numbers the ops of one phase across its rounds. A phase whose
// last round stops only on a whole number of cycles runs each workload's
// op mix in exact proportion, whatever the seed.
type cursor struct {
	next  atomic.Int64
	cycle int64 // ops per cycle of the workload's mix
}

// claim returns the next op number, or false once the deadline has
// passed and, when final, the phase holds whole cycles and at least
// atLeast ops.
func (cur *cursor) claim(deadline time.Time, final bool, atLeast int64) (int64, bool) {
	for {
		n := cur.next.Load()
		if time.Now().After(deadline) && (!final || (n%cur.cycle == 0 && n >= atLeast)) {
			return 0, false
		}
		if cur.next.CompareAndSwap(n, n+1) {
			return n, true
		}
	}
}

// closedLoop runs clients callers, each starting its next op when the
// previous one ends, until dur has passed (see cursor.claim for the
// final round). It returns the latency in ms of every op that succeeded
// (a failed op is counted by record, never as a fast sample) and the
// clients' busy time: the sum over clients of the time from the start
// to the end of that client's last op, so one client's idle wait for
// the other's last op is not counted. prep, when set, runs before each
// op outside its timing.
func (b *bench) closedLoop(clients int, dur time.Duration, cur *cursor, final bool, atLeast int64, prep prepFunc, op opFunc) ([]float64, time.Duration) {
	var (
		mu   sync.Mutex
		lat  []float64
		busy time.Duration
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				busy += time.Since(start)
				mu.Unlock()
			}()
			for {
				n, ok := cur.claim(deadline, final, atLeast)
				if !ok {
					return
				}
				if prep != nil {
					if err := prep(c); err != nil {
						b.record(err)
						continue
					}
				}
				t0 := time.Now()
				err := op(c, n)
				d := ms(time.Since(t0))
				b.record(err)
				if err == nil {
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return lat, busy
}

// openLoop issues count ops on a fixed schedule of rate per second,
// served by at most nproc workers. Each op's latency is timed from its
// due time, so a stall also delays the ops queued behind it; late is how
// far behind schedule each op started. prep, when set, runs when a
// worker takes an op, before its due time.
func (b *bench) openLoop(rate float64, count int64, cur *cursor, prep prepFunc, op opFunc) (lat, late []float64) {
	interval := time.Duration(float64(time.Second) / rate)
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	first := cur.next.Add(count) - count
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= count {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if prep != nil {
					if err := prep(c); err != nil {
						b.record(err)
						continue
					}
				}
				time.Sleep(time.Until(due))
				began := time.Now()
				err := op(c, first+k)
				d := ms(time.Since(due))
				b.record(err)
				mu.Lock()
				if err == nil {
					lat = append(lat, d)
				}
				late = append(late, ms(began.Sub(due)))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat, late
}

// rounds is how many times the phases of a run take turns, so slow
// drift of a shared host spreads over all of them instead of landing on
// one.
const rounds = 4

// plan splits one run's measuring time between the three end-to-end
// phases.
type plan struct {
	latency, throughput, open float64 // shares of the measuring time
	// rate is the open-loop rate in ops per second, a constant of at
	// most 40% of the slowest raw ops_per_s measured on the workload: at
	// half, a slow spell of the shared host pushed the open loop into
	// queueing and doubled its p50.
	rate float64
}

// phaseOps are the ops of the three phases: the open loop runs the
// latency op, and so does the throughput phase unless throughput is
// set. prep is untimed upkeep run before every op; cycle is the length
// of the workload's op mix (1 when ops are drawn independently).
type phaseOps struct {
	latency, throughput opFunc
	prep                prepFunc
	cycle               int
}

// measured holds the raw samples of the three phases.
type measured struct {
	lat       []float64 // closed loop, one client, ms
	thruOps   int
	thruBusy  time.Duration // summed over the clients
	open      []float64     // open loop, ms from due time
	late      []float64
	phaseTime time.Duration // wall time of all phases together
}

func (b *bench) measure(p plan, ops phaseOps) measured {
	if ops.throughput == nil {
		ops.throughput = ops.latency
	}
	cycle := int64(max(ops.cycle, 1))
	total := b.seconds * float64(time.Second)
	share := func(f float64) time.Duration { return time.Duration(f * total / rounds) }
	// The open loop issues whole cycles: rate × its share of the time,
	// rounded to cycles and split over the rounds.
	openOps := max(1, int64(math.Round(p.rate*p.open*b.seconds/float64(cycle)))) * cycle
	latCur, thruCur, openCur := &cursor{cycle: cycle}, &cursor{cycle: cycle}, &cursor{cycle: cycle}
	// The one-client phase also probes the host's speed between ops.
	latPrep := func(c int) error {
		b.speed.probeDue()
		if ops.prep != nil {
			return ops.prep(c)
		}
		return nil
	}
	var m measured
	start := time.Now()
	for r := 0; r < rounds; r++ {
		final := r == rounds-1
		b.speed.probe()
		lat, _ := b.closedLoop(1, share(p.latency), latCur, final, minLatencySamples, latPrep, ops.latency)
		m.lat = append(m.lat, lat...)
		b.speed.probe()
		thru, busy := b.closedLoop(nproc, share(p.throughput), thruCur, final, 0, ops.prep, ops.throughput)
		m.thruOps += len(thru) // successful ops only
		m.thruBusy += busy
		count := openOps / rounds
		if final {
			count = openOps - count*(rounds-1)
		}
		b.speed.probe()
		open, late := b.openLoop(p.rate, count, openCur, ops.prep, ops.latency)
		m.open = append(m.open, open...)
		m.late = append(m.late, late...)
	}
	m.phaseTime = time.Since(start)
	b.speed.probe()
	return m
}

// endToEnd fills the latency and rate metrics from the samples.
func (m measured) endToEnd(out map[string]float64) {
	out["p50_ms"] = quantile(m.lat, 0.5)
	out["p90_ms"] = quantile(m.lat, 0.9)
	out["ops_per_s"] = float64(m.thruOps) * nproc / m.thruBusy.Seconds()
	out["open_p50_ms"] = quantile(m.open, 0.5)
}

func (m measured) ops() int { return len(m.lat) + m.thruOps + len(m.open) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// alternate runs untraced and traced closed-loop phases with one client
// in turn over the measuring time, each on whole cycles of the mix, and
// returns the untraced latencies.
func (b *bench) alternate(prep prepFunc, untraced, traced opFunc, cycle int) []float64 {
	part := time.Duration(b.seconds * float64(time.Second) / (2 * rounds))
	uCur, tCur := &cursor{cycle: int64(cycle)}, &cursor{cycle: int64(cycle)}
	var lat []float64
	for r := 0; r < rounds; r++ {
		l, _ := b.closedLoop(1, part, uCur, r == rounds-1, 0, prep, untraced)
		lat = append(lat, l...)
		b.closedLoop(1, part, tCur, r == rounds-1, 0, prep, traced)
	}
	return lat
}

// timeSetup runs setup n times, each after a host-speed probe, and
// returns the median duration in seconds together with the last setup's
// result, which the measuring phases use; the earlier results are torn
// down.
func timeSetup[T any](b *bench, n int, setup func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		b.speed.probe()
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		logf("setup %d took %.2fs", i+1, times[i])
		if i < n-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}
