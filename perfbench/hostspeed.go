package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The host the benchmark was defined on is shared with other tenants,
// and how fast it runs identical work drifts by a third over tens of
// minutes: two sets of runs of the same code, twenty minutes apart,
// differed by 17–35% in every latency and CPU-per-op median. That drift
// is the host's, not the program's, so the time metrics are reported at
// a reference host speed. Between the phases of a run, with no op in
// flight, the benchmark times a fixed probe: pure Go that calls no code
// of the repository and allocates nothing — a map refill and lookup, a
// sort, and random updates of a table — over a working set of a few MB,
// the cache-resident kind of work that slowed with the chase in the
// host's slow spells (a pointer chase through DRAM and a register-only
// loop barely moved). The run's host factor is the median probe time
// over probeRefMs; every time metric is divided by it (and ops_per_s
// multiplied), and the raw values go to stderr beside it.

// probeRefMs is the median probe time on the reference host, measured
// once and fixed here. It only sets the scale of the reported times.
const probeRefMs = 8.0

// probeReps is how many passes each lane of one probe takes; the
// median pass over all lanes counts.
const probeReps = 3

// probeEvery spaces the probes a closed loop with one client takes
// between its ops. A shared host's speed changes from one second to the
// next, so the factor needs many short probes spread over the run;
// between the phases alone they would be too few.
const probeEvery = 250 * time.Millisecond

// hostSpeed probes both processors at once, one lane each: the
// workloads keep both busy, and the two virtual processors of a shared
// host need not be equally fast.
type hostSpeed struct {
	lanes [nproc]*probeLane
	times []float64     // ms, one per probe
	cpu   time.Duration // CPU time the probe passes used, for callers that time their own process
	last  time.Time     // when the last probe ended
}

// probeLane is one lane's working set.
type probeLane struct {
	m     map[uint64]uint32
	keys  []uint64
	buf   []uint64
	table []uint64
	sink  uint64
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{}
	for i := range h.lanes {
		r := rand.New(rand.NewSource(int64(i + 1)))
		l := &probeLane{
			m:     make(map[uint64]uint32, 1<<16),
			keys:  make([]uint64, 1<<15),
			buf:   make([]uint64, 1<<15),
			table: make([]uint64, 1<<18),
		}
		for j := range l.keys {
			l.keys[j] = r.Uint64()
		}
		l.pass() // page the working set in
		h.lanes[i] = l
	}
	return h
}

// pass is one probe pass, a few ms on the reference host.
func (l *probeLane) pass() {
	clear(l.m)
	for i, k := range l.keys {
		l.m[k] = uint32(i)
	}
	var s uint64
	for _, k := range l.keys {
		s += uint64(l.m[k])
	}
	copy(l.buf, l.keys)
	slices.Sort(l.buf)
	mask := uint64(len(l.table) - 1)
	x := uint64(88172645463325252)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.table[x&mask] += x
	}
	l.sink += s + l.buf[0] + l.table[x&mask]
}

// probe runs probeReps passes on every lane at once and records the
// median pass time; a garbage collection the measured ops left running
// can slow a pass or two, not the median.
func (h *hostSpeed) probe() {
	if h == nil {
		return
	}
	cpu0 := selfCPU()
	var (
		t  [nproc][probeReps]float64
		wg sync.WaitGroup
	)
	for i, l := range h.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range t[i] {
				t0 := time.Now()
				l.pass()
				t[i][j] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	h.cpu += selfCPU() - cpu0
	all := make([]float64, 0, nproc*probeReps)
	for i := range t {
		all = append(all, t[i][:]...)
	}
	h.times = append(h.times, median(all))
	h.last = time.Now()
}

// probeDue probes when probeEvery has passed since the last probe. A
// closed loop with one client calls it between ops, while no op is in
// flight.
func (h *hostSpeed) probeDue() {
	if h != nil && time.Since(h.last) >= probeEvery {
		h.probe()
	}
}

// factor is how much slower than the reference host this run's host
// ran: the median probe over probeRefMs.
func (h *hostSpeed) factor() float64 {
	return median(h.times) / probeRefMs
}
