// Command gmbench is the repository benchmark. It drives goldmine only through
// its public packages (designs, core, stimgen, serve, monitor, coverage) on
// four workloads — mine-sat, mine-explicit, close and serve — and checks every
// output it times.
//
//	gmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --workload all runs the four in turn and prints one line per workload.
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics of an untraced run; with --trace 1 the run is made
// twice, untraced and then traced, each for half of --seconds, and the
// object holds the per-layer self-time rollup of the traced run (see
// README.md). Human-readable detail goes to standard error. The exit code is
// 0 whenever a result was printed, including one whose output checks failed
// ("correct": false).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"goldmine/internal/telemetry"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is what one measured run of a workload yields, traced or not.
type window struct {
	// setups are the durations of the repeated set-ups; setup_s is their
	// median.
	setups []time.Duration
	// jobs holds the job times the percentiles are taken over: each job of
	// the list at its fastest pass (mine-*, close, see jobBest) or each slot
	// of the serve segment at its fastest replay (see slotBest).
	jobs []time.Duration
	// jobs_per_s is completed/busy. mine-* and close: the job list's length
	// over the sum of each job's fastest time. serve: the jobs completed over
	// the span from the first due time to the last completion.
	completed int
	busy      time.Duration
	// alloc is the TotalAlloc delta over the timed window, in bytes.
	alloc uint64
	// attempted and failed count jobs and jobs whose output check failed.
	attempted, failed int
	// provedUnbounded and covered/points are the result-quality sums.
	provedUnbounded int64
	covered, points int64
	// passes holds the deterministic counters of each pass, for the
	// repeat-exactly self-check (nil for serve).
	passes []map[string]int64
	// layer holds per-layer values the workload measures itself (result
	// fields, server statistics), merged into the traced rollup.
	layer map[string]float64
	// latByID maps a serve job ID to its latency, for the queue-wait
	// rollup (serve only).
	latByID map[string]time.Duration
	// failures names the first few failed checks, for standard error.
	failures []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 10 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload: run measures one window, with the
// given tracer (nil = untraced).
type workload struct {
	name string
	run  func(cfg runConfig, tr *telemetry.Tracer) (*window, error)
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds int
	// work is a scratch directory inside the checkout for the files the
	// program writes (WAL, corpus, dead-hole journals); removed at exit.
	work string
}

var workloads = []workload{
	{"mine-sat", func(c runConfig, tr *telemetry.Tracer) (*window, error) {
		return runMine(c, mineSatPool, mineSatPass, tr)
	}},
	{"mine-explicit", func(c runConfig, tr *telemetry.Tracer) (*window, error) {
		return runMine(c, mineExplicitPool, mineExplicitPass, tr)
	}},
	{"close", runClose},
	{"serve", runServe},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: mine-sat, mine-explicit, close, serve, or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "nominal length of the timed window")
		trace   = flag.Int("trace", 0, "1 = report the per-layer rollup of a traced run")
		work    = flag.String("work", ".bench_build", "directory for build outputs and scratch files")
	)
	flag.Parse()
	var selected []workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gmbench: need --workload (one of %s, or all), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: *seed, seconds: *seconds, work: scratch}

	// One workload prints its report alone on the last line; "all" prints
	// one line per workload, prefixed by its name.
	for _, wl := range selected {
		rep, err := measure(wl, cfg, *trace == 1, filepath.Join(*work, "counters"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			return 1
		}
		out, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gmbench:", err)
			return 1
		}
		if len(selected) > 1 {
			fmt.Print(wl.name, " ")
		}
		fmt.Println(string(out))
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs the workload once untraced and, when traced is set, once more
// under a tracer, and builds the report. A traced run splits its seconds
// between the two windows, so that it takes as long as an untraced one.
func measure(wl workload, cfg runConfig, traced bool, counterDir string) (*report, error) {
	if traced {
		cfg.seconds = max(1, cfg.seconds/2)
	}
	base, err := wl.run(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	describe(wl.name, "untraced", base)
	rep := &report{Attempted: base.attempted, Failed: base.failed}
	wins := []*window{base}
	if !traced {
		rep.Metrics = endToEnd(base)
	} else {
		cap := newCapture()
		tw, err := wl.run(cfg, cap.tracer)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", wl.name, err)
		}
		describe(wl.name, "traced", tw)
		rep.Attempted += tw.attempted
		rep.Failed += tw.failed
		wins = append(wins, tw)
		rep.Metrics, err = perLayer(cap, base, tw)
		if err != nil {
			return nil, err
		}
	}
	var passes []map[string]int64
	for _, w := range wins {
		passes = append(passes, w.passes...)
	}
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	mism, err := checkCounters(counterDir, build, wl.name, cfg.seed, passes)
	if err != nil {
		return nil, err
	}
	for _, m := range mism {
		fmt.Fprintln(os.Stderr, "gmbench: DETERMINISM MISMATCH:", m)
	}
	rep.Correct = rep.Failed == 0 && len(mism) == 0 && rep.Attempted > 0
	return rep, nil
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(w *window) map[string]metric {
	p50, p90 := quantile(w.jobs, 0.5), quantile(w.jobs, 0.9)
	return map[string]metric{
		"setup_s":          {median(w.setups).Seconds(), "s"},
		"jobs_per_s":       {float64(w.completed) / w.busy.Seconds(), "1/s"},
		"job_p50_ms":       {ms(p50), "ms"},
		"job_p90_ms":       {ms(p90), "ms"},
		"alloc_mb":         {float64(w.alloc) / (1 << 20), "MB"},
		"proved_unbounded": {float64(w.provedUnbounded), "count"},
		"coverage_pct":     {pct(w.covered, w.points), "%"},
	}
}

// describe prints a human-readable summary of a window to standard error.
func describe(name, mode string, w *window) {
	m := endToEnd(w)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "%s (%s): %d jobs in %.2fs, %d timed, %d failed checks, GOMAXPROCS=%d\n",
		name, mode, w.completed, w.busy.Seconds(), len(w.jobs), w.failed, runtime.GOMAXPROCS(0))
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-18s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  job deciles (ms):")
	for q := 0.0; q <= 1.0; q += 0.1 {
		fmt.Fprintf(os.Stderr, " %.1f", ms(quantile(w.jobs, q)))
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprintf(os.Stderr, "  setup samples (ms):")
	for _, d := range w.setups {
		fmt.Fprintf(os.Stderr, " %.3f", ms(d))
	}
	fmt.Fprintln(os.Stderr)
	for _, f := range w.failures {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED:", f)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// settle collects garbage so no earlier allocation is paid for inside the
// next timed region, and returns the allocation total to measure from.
func settle() uint64 {
	runtime.GC()
	return allocated()
}

// allocated returns the allocation total.
func allocated() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}
