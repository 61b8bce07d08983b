// Command perfbench is the repository's end-to-end benchmark for the tdx
// engine and the tdxd daemon. It runs one named workload for a fixed
// measuring time, checks every output against the library, and prints
// one JSON result line. See README.md for the workloads, the metrics and
// the layer map; run.sh builds and launches it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef is a reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"open_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A workload that
// does not exercise a layer reports -1 for that layer's metrics.
var perLayer = []metricDef{
	{"parser.ms_per_op", "ms"},
	{"normalize.ms_per_op", "ms"},
	{"normalize.fragment_ratio", "ratio"},
	{"chase.tgd.ms_per_op", "ms"},
	{"chase.tgd.fire_ratio", "ratio"},
	{"chase.egd.ms_per_op", "ms"},
	{"chase.egd.renorm_ms_per_op", "ms"},
	{"chase.egd.merges_per_op", "count"},
	{"chase.egd.rounds_per_op", "count"},
	{"jsonio.encode.ms_per_op", "ms"},
	{"jsonio.encode.bytes_per_op", "bytes"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"server.ttfb_ms", "ms"},
	{"server.body_ms", "ms"},
	{"server.elapsed_ms", "ms"},
	{"server.resp_kb_per_op", "KB"},
	{"server.streamed_share", "ratio"},
	{"snapshot.hit_ratio", "ratio"},
	{"snapshot.load_ms_per_op", "ms"},
	{"query.ms_per_op", "ms"},
	{"session.delta_ms", "ms"},
	{"session.other_ms", "ms"},
	{"session.fallback_ratio", "ratio"},
	{"chase.delta.fires_per_fact", "ratio"},
	{"jsonio.decode.ms_per_op", "ms"},
	{"snapshot.write_ms_per_op", "ms"},
	{"snapshot.bytes_written_per_delta_byte", "ratio"},
	{"fleet.forward_ratio", "ratio"},
	{"fleet.hop_ms", "ms"},
	{"fleet.compiles", "count"},
	{"fleet.gossip_pkts_per_s", "1/s"},
	{"server.rejected_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// benchWorkload is one named traffic mix. run measures it for b.seconds and
// returns its metrics by name; the harness adds the units.
type benchWorkload struct {
	name string
	run  func(b *bench) (map[string]float64, error)
}

var workloads = []benchWorkload{
	{"chase-batch", runChaseBatch},
	{"serve-hot", runServeHot},
	{"session-append", runSessionAppend},
	{"fleet-run", runFleetRun},
}

// bench is the state one run shares across its phases.
type bench struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // checkout root; every file the run writes lives under it
	tdxd    string // path of the built tdxd binary
	work    string // this run's scratch directory

	tr    *tracer    // nil unless -trace 1
	speed *hostSpeed // nil in the traced run

	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64 // outputs that differ from the library's

	mu    sync.Mutex
	notes []string // the first few failure messages, for stderr
}

// fail records one failed op (a non-2xx status, a transport error, a
// wrong output); wrong marks an output that disagrees with the library.
func (b *bench) fail(wrong bool, format string, args ...any) {
	b.failed.Add(1)
	if wrong {
		b.wrong.Add(1)
	}
	b.mu.Lock()
	if len(b.notes) < 8 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: chase-batch, serve-hot, session-append or fleet-run")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	root := flag.String("root", ".", "checkout root: sources, build products and scratch files")
	tdxd := flag.String("tdxd", "", "tdxd binary (run.sh builds it)")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: -workload chase-batch|serve-hot|session-append|fleet-run -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := checkCheckout(*root); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, root: *root, tdxd: *tdxd}
	b.work = filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if b.trace {
		b.tr = newTracer()
	} else {
		b.speed = newHostSpeed()
	}
	metrics, err := w.run(b)
	if rmErr := os.RemoveAll(b.work); rmErr != nil {
		logf("remove scratch: %v", rmErr)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	if b.trace {
		path := filepath.Join(*root, ".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := b.tr.writeFile(path); err != nil {
			logf("write trace: %v", err)
			os.Exit(1)
		}
		logf("spans written to %s", path)
	}
	for _, n := range b.notes {
		logf("failure: %s", n)
	}
	if !b.trace {
		atReferenceSpeed(metrics, b.speed)
	}
	out := resultOut{
		Correct:   b.wrong.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			if !b.trace {
				logf("%s: end-to-end metric %s was not measured", w.name, d.name)
				os.Exit(1)
			}
			v = -1
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		logf("%s: no op was attempted", w.name)
		os.Exit(1)
	}
	printHuman(w.name, out)
	line, err := json.Marshal(out)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// atReferenceSpeed rescales the time metrics of an untraced run to the
// reference host speed (see hostspeed.go) and logs the raw values.
func atReferenceSpeed(metrics map[string]float64, h *hostSpeed) {
	f := h.factor()
	logf("host factor %.4f: probes %.2f ms over a reference of %.1f ms", f, h.times, probeRefMs)
	for _, name := range []string{"setup_s", "p50_ms", "p90_ms", "ops_per_s", "open_p50_ms", "cpu_ms_per_op"} {
		raw := metrics[name]
		if name == "ops_per_s" {
			metrics[name] = raw * f
		} else {
			metrics[name] = raw / f
		}
		logf("  %-14s raw %.4f", name, raw)
	}
}

// checkCheckout fails fast when the directory is not a buildable
// checkout of the repository.
func checkCheckout(root string) error {
	for _, p := range []string{"go.mod", "tdx.go", "cmd/tdxd/main.go"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not a checkout of the repository: %v", root, err)
		}
	}
	return nil
}

// printHuman writes the metrics one per line to stderr, sorted by name.
func printHuman(name string, out resultOut) {
	keys := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench: %s correct=%v attempted=%d failed=%d\n", name, out.Correct, out.Attempted, out.Failed)
	for _, k := range keys {
		m := out.Metrics[k]
		fmt.Fprintf(&sb, "  %-40s %12.4f %s\n", k, m.Value, m.Unit)
	}
	os.Stderr.WriteString(sb.String())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
