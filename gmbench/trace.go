package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"goldmine/internal/telemetry"
)

// captureBuffer is the journal's event queue depth. The drain goroutine only
// appends to memory, so this covers the bursts of the busiest traced run
// without a drop (telemetry.dropped reports it if not).
const captureBuffer = 1 << 17

// memSink keeps the journal's JSONL output in memory. Only the journal's
// drain goroutine writes it; it is read after Journal.Close has returned.
type memSink struct{ b []byte }

func (m *memSink) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

// capture is the traced run's in-memory journal and the tracer over it.
type capture struct {
	sink    memSink
	journal *telemetry.Journal
	tracer  *telemetry.Tracer
}

func newCapture() *capture {
	c := &capture{}
	c.journal = telemetry.NewJournal(&c.sink, captureBuffer)
	c.tracer = telemetry.New(telemetry.NewRegistry(), c.journal)
	return c
}

// spanRec is one completed span: microsecond start and end, its parent and,
// for serve.job spans, the job ID.
type spanRec struct {
	id, parent uint64
	name       string
	start, end int64
	job        string
}

// spans closes the journal and parses its span records.
func (c *capture) spans() ([]spanRec, error) {
	if err := c.tracer.Close(); err != nil {
		return nil, err
	}
	var out []spanRec
	for _, line := range bytes.Split(c.sink.b, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev telemetry.JSONEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("journal line %q: %w", line, err)
		}
		if ev.Kind != telemetry.KindSpan {
			continue
		}
		sr := spanRec{id: ev.Span, parent: ev.Parent, name: ev.Name, start: ev.TS, end: ev.TS + ev.DurUS}
		if id, ok := ev.Attrs["id"].(string); ok {
			sr.job = id
		}
		out = append(out, sr)
	}
	return out, nil
}

// selfTimes returns, per span name, the summed self time in microseconds: a
// span's duration minus the union of its children's intervals, each clipped
// to the span. Children may overlap one another (concurrent work) or outlive
// their parent; neither makes a self time negative or counts twice.
func selfTimes(spans []spanRec) map[string]int64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.name] += (s.end - s.start) - covered(s.start, s.end, children[s.id])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// inclusive returns, per span name, the summed duration in microseconds.
func inclusive(spans []spanRec) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.name] += s.end - s.start
	}
	return out
}

// layerSpans maps each per-layer self-time metric to the spans it sums.
// Spans named bench.* are the benchmark's own; the rest are the program's.
var layerSpans = map[string][]string{
	"rtl.elaborate_ms":      {"rtl.elaborate"},
	"simc.compile_ms":       {"simc.compile", "sim.compile"},
	"core.engine_build_ms":  {"core.engine_build"},
	"mc.ctx_canon_ms":       {"mc.ctx_canon"},
	"mc.explicit_ms":        {"mc.explicit"},
	"mc.check_ms":           {"mc.check"},
	"mc.bmc_frame_ms":       {"mc.bmc_frame"},
	"mc.induction_step_ms":  {"mc.induction_step"},
	"sat.solve_ms":          {"sat.solve"},
	"mc.reach_ms":           {"mc.reach", "mc.reach_frame"},
	"mc.reach_induction_ms": {"mc.reach_induction"},
	"directed.hole_ms":      {"directed.hole"},
	"directed.compact_ms":   {"directed.compact"},
	"directed.loop_ms":      {"directed.run", "directed.iteration", "directed.wave"},
	"mine.tree_ms":          {"mine.tree_update", "mine.candidates"},
	"mine.ctx_feedback_ms":  {"mine.ctx_feedback"},
	"mine.loop_ms":          {"mine.run", "mine.output", "mine.iteration"},
	"sim.run_ms":            {"sim.run", "sim.batch"},
	"sched.cache_probe_ms":  {"sched.cache_probe"},
	"bench.unattributed_ms": {"bench.job"},
}

// formalSpans are the spans whose self time is formal-engine time.
var formalSpans = []string{
	"mc.check", "mc.explicit", "mc.bmc_frame", "mc.induction_step", "mc.ctx_canon",
	"sat.solve", "mc.reach", "mc.reach_frame", "mc.reach_induction",
}

// registryCounters are the program's counters reported as they stand after
// the traced run (the registry is fresh per traced run).
var registryCounters = []string{
	"mc.explicit_window_sims", "mc.checks", "mc.proved", "mc.bounded", "mc.falsified", "mc.unknown",
	"sat.solves", "sat.propagations", "sat.conflicts", "mine.iterations", "sim.cycles",
}

// workloadLayer are the per-layer values the workloads measure themselves,
// with their units; a workload that does not exercise the layer reports 0.
var workloadLayer = map[string]string{
	"stimgen.reach_calls": "count", "stimgen.reach_solves": "count",
	"stimgen.closed_per_solve": "ratio", "stimgen.dead_holes": "count",
	"sched.hit_ratio": "ratio", "serve.submit_ms": "ms", "serve.wal_appends": "count",
	"serve.pool_reuse_ratio": "ratio", "serve.late_ms": "ms",
}

// perLayer builds the traced run's per-layer metrics.
func perLayer(c *capture, base, traced *window) (map[string]metric, error) {
	spans, err := c.spans()
	if err != nil {
		return nil, err
	}
	self, incl := selfTimes(spans), inclusive(spans)
	out := map[string]metric{}
	for name, sps := range layerSpans {
		var us int64
		for _, s := range sps {
			us += self[s]
		}
		out[name] = metric{float64(us) / 1000, "ms"}
	}
	var formal int64
	for _, s := range formalSpans {
		formal += self[s]
	}
	out["mc.explicit_share"] = metric{ratio(self["mc.explicit"], formal), "ratio"}
	out["mc.ctx_canon_share"] = metric{
		ratio(incl["mc.ctx_canon"], incl["mc.check"]+incl["mc.reach"]+incl["mc.reach_induction"]), "ratio"}
	snap := c.tracer.Registry().Snapshot()
	for _, n := range registryCounters {
		out[n] = metric{float64(snap.Counters[n]), "count"}
	}
	for n, unit := range workloadLayer {
		out[n] = metric{traced.layer[n], unit}
	}
	// Serve: time inside the daemon's job span, and the rest of each job's
	// latency, which it spent queued (or waiting to be noticed done).
	jobSpan := map[string]int64{}
	for _, s := range spans {
		if s.name == "serve.job" && s.job != "" {
			jobSpan[s.job] += s.end - s.start
		}
	}
	var inJob, wait []time.Duration
	for id, us := range jobSpan {
		d := time.Duration(us) * time.Microsecond
		inJob = append(inJob, d)
		if lat, ok := traced.latByID[id]; ok {
			wait = append(wait, lat-d)
		}
	}
	out["serve.job_ms"] = metric{ms(median(inJob)), "ms"}
	out["serve.queue_wait_ms"] = metric{ms(median(wait)), "ms"}
	out["telemetry.overhead_pct"] = metric{100 * (float64(sum(traced.jobs))/float64(sum(base.jobs)) - 1), "%"}
	out["telemetry.dropped"] = metric{float64(c.journal.Dropped()), "count"}
	return out, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
