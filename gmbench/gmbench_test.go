package main

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/designs"
	"goldmine/internal/holes"
	"goldmine/internal/serve"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

func TestJobListsArePureFunctionsOfSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		if !reflect.DeepEqual(closeJobs(seed), closeJobs(seed)) {
			t.Errorf("seed %d: close job list differs between calls", seed)
		}
		if !reflect.DeepEqual(serveJobs(seed, 3, "j"), serveJobs(seed, 3, "j")) {
			t.Errorf("seed %d: serve job list differs between calls", seed)
		}
	}
	if reflect.DeepEqual(closeJobs(1), closeJobs(2)) {
		t.Error("seeds 1 and 2 give the same close job list")
	}
	if reflect.DeepEqual(serveJobs(1, 3, "j"), serveJobs(2, 3, "j")) {
		t.Error("seeds 1 and 2 give the same serve job list")
	}
}

// Every seed must do the same work: the same multiset of jobs, reordered.
func TestJobMultisetIsSeedInvariant(t *testing.T) {
	key := func(seed int64) (closeDs, serveBs []string, repeats int) {
		for _, j := range closeJobs(seed) {
			closeDs = append(closeDs, j.design)
		}
		for _, j := range serveJobs(seed, 4, "j") {
			serveBs = append(serveBs, j.base.String())
			if j.repeat {
				repeats++
			}
		}
		sort.Strings(closeDs)
		sort.Strings(serveBs)
		return
	}
	c1, s1, r1 := key(1)
	c2, s2, r2 := key(99)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(s1, s2) || r1 != r2 {
		t.Errorf("job multisets differ across seeds")
	}
	if r1 != 3*serveRepeats {
		t.Errorf("got %d serve repeats in 4 rounds, want %d", r1, 3*serveRepeats)
	}
}

func TestServeRepeatsFollowTheirSource(t *testing.T) {
	jobs := serveJobs(5, 3, "j")
	pos := map[string]int{}
	for i, j := range jobs {
		if !j.repeat {
			if _, dup := pos[j.module]; dup {
				t.Fatalf("fresh module name %s used twice", j.module)
			}
			pos[j.module] = i
			continue
		}
		src, ok := pos[j.module]
		if !ok {
			t.Fatalf("repeat of %s precedes its source", j.module)
		}
		if i-src < serveRepeatLag {
			t.Errorf("repeat of %s only %d jobs after its source", j.module, i-src)
		}
	}
}

func TestSelfTimeUnionOfOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{id: 1, name: "root", start: 0, end: 100},
		// Two overlapping children: their union [10,60) counts once.
		{id: 2, parent: 1, name: "child", start: 10, end: 40},
		{id: 3, parent: 1, name: "child", start: 30, end: 60},
		// A child outliving its parent is clipped to [90,100).
		{id: 4, parent: 1, name: "late", start: 90, end: 130},
		{id: 5, parent: 2, name: "leaf", start: 20, end: 25},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":  100 - 50 - 10,
		"child": (30 - 5) + 30,
		"late":  40,
		"leaf":  5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// Identical concurrent children cover the parent once, never negatively.
	got = selfTimes([]spanRec{
		{id: 1, name: "p", start: 0, end: 10},
		{id: 2, parent: 1, name: "c", start: 0, end: 10},
		{id: 3, parent: 1, name: "c", start: 0, end: 10},
	})
	if got["p"] != 0 || got["c"] != 20 {
		t.Errorf("self times %v, want p=0 c=20", got)
	}
}

func TestRollupFromTracer(t *testing.T) {
	c := newCapture()
	root := c.tracer.Root("bench.job")
	child := root.Child("mc.check")
	child.End()
	root.End()
	spans, err := c.spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || c.journal.Dropped() != 0 {
		t.Fatalf("got %d spans, %d dropped", len(spans), c.journal.Dropped())
	}
	if spans[0].parent != spans[1].id && spans[1].parent != spans[0].id {
		t.Errorf("parent link lost: %+v", spans)
	}
}

// mineOne mines one output bit of a bundled design with the workload's
// settings.
func mineOne(t *testing.T, design, output string, bit int) (*designs.Benchmark, *core.OutputResult, sim.Stimulus) {
	t.Helper()
	bs, err := buildDesigns([]string{design}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	bt := bs[design]
	var seed sim.Stimulus
	if bt.bench.Directed != nil {
		seed = bt.bench.Directed()
	}
	res, err := bt.engine.MineOutput(context.Background(), bt.design.Signal(output), bit, seed)
	if err != nil {
		t.Fatal(err)
	}
	return bt.bench, res, seed
}

func TestCheckMineCatchesCorruption(t *testing.T) {
	b, res, seed := mineOne(t, "arbiter2", "gnt0", 0)
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	random := stimgen.Random(d, randomCheckCycles, 1, 2)
	if err := checkMine(d, seed, res, random); err != nil {
		t.Fatalf("clean result fails its check: %v", err)
	}
	if len(res.Failed) < 2 {
		t.Fatalf("need two counterexamples, got %d", len(res.Failed))
	}

	dropped := *res
	dropped.Ctx = res.Ctx[1:]
	if checkMine(d, seed, &dropped, random) == nil {
		t.Error("a dropped counterexample passes the check")
	}

	swapped := *res
	swapped.Ctx = append([]sim.Stimulus{res.Ctx[1], res.Ctx[0]}, res.Ctx[2:]...)
	swapped.Ctx[0] = sim.Stimulus{} // an empty trace violates nothing
	if checkMine(d, seed, &swapped, random) == nil {
		t.Error("a counterexample that does not replay passes the check")
	}

	// A falsified candidate passed off as proved: its own counterexample is
	// in the suite, so the monitor must see it fail.
	lying := *res
	lying.Proved = append(append([]core.AssertionRecord(nil), res.Proved...), res.Failed[0])
	if checkMine(d, seed, &lying, random) == nil {
		t.Error("a false proved assertion passes the check")
	}

	interrupted := *res
	interrupted.Interrupted = true
	if checkMine(d, seed, &interrupted, random) == nil {
		t.Error("an interrupted result passes the check")
	}
}

func TestCheckCloseCatchesTruncatedSuite(t *testing.T) {
	b, err := designs.Get("b06")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Design()
	if err != nil {
		t.Fatal(err)
	}
	opts := stimgen.ClosureOptions{TotalCycles: closeBudget, FillRandom: true, Compiled: true,
		DeadFile: filepath.Join(t.TempDir(), "dead.jsonl")}
	opts.Workers = 1
	opts.Seed = 3
	res, err := stimgen.CloseCoverage(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClose(d, res, closeBudget); err != nil {
		t.Fatalf("clean result fails its check: %v", err)
	}
	if len(res.Dead) == 0 {
		t.Fatal("b06 closure proved no hole dead; the dead-hole check is untested")
	}

	truncated := *res
	truncated.Suite = res.Suite[:len(res.Suite)/2]
	if checkClose(d, &truncated, closeBudget) == nil {
		t.Error("a truncated suite passes the check")
	}
	// Even with the cycle count patched to match, the replayed coverage
	// must expose the truncation.
	truncated.CyclesUsed = 0
	for _, s := range truncated.Suite {
		truncated.CyclesUsed += len(s)
	}
	if checkClose(d, &truncated, closeBudget) == nil {
		t.Error("a truncated suite with a consistent cycle count passes the check")
	}

	if checkClose(d, res, res.CyclesUsed-1) == nil {
		t.Error("a suite over budget passes the check")
	}

	// A hole the suite covers, claimed dead.
	_, _, _, col, err := suiteCoverage(d, res.Suite)
	if err != nil {
		t.Fatal(err)
	}
	open := map[string]bool{}
	for _, h := range holes.FromCollector(col) {
		open[h.Key()] = true
	}
	hit := ""
	for _, h := range holes.FromCollector(coverage.New(d)) {
		if !open[h.Key()] {
			hit = h.Key()
			break
		}
	}
	if hit == "" {
		t.Fatal("the suite covers no hole")
	}
	lying := *res
	lying.Dead = append([]stimgen.DeadHole(nil), res.Dead...)
	lying.Dead[0].Key = hit
	if checkClose(d, &lying, closeBudget) == nil {
		t.Error("a dead hole the suite covers passes the check")
	}
}

func TestCheckArtifactCatchesAlteration(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, MaxJobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	sources, err := baseSources()
	if err != nil {
		t.Fatal(err)
	}
	j := serveJob{base: target{"fetch", "valid", 0}, module: "fetch_test_0", tenant: "t0"}
	job, err := srv.Submit(jobSpec(j, sources))
	if err != nil {
		t.Fatal(err)
	}
	done, err := waitJob(srv, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	base, err := directRun(j.base, sources["fetch"])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkArtifact(done.Artifact, j.module, base.canonical); err != nil {
		t.Fatalf("clean artifact fails its check: %v", err)
	}

	altered := *done.Artifact
	altered.Canonical = strings.Replace(altered.Canonical, "proved", "bounded", 1)
	if checkArtifact(&altered, j.module, base.canonical) == nil {
		t.Error("an altered artifact passes the check")
	}
	if checkArtifact(done.Artifact, "fetch_other", base.canonical) == nil {
		t.Error("an artifact of another module passes the check")
	}
	if checkArtifact(nil, j.module, base.canonical) == nil {
		t.Error("a missing artifact passes the check")
	}
}

func TestCheckCountersFlagsMismatch(t *testing.T) {
	dir := t.TempDir()
	pass := map[string]int64{"sat.solves": 10, "mine.iterations": 4}
	if m, err := checkCounters(dir, "b", "w", 1, []map[string]int64{pass, pass}); err != nil || len(m) != 0 {
		t.Fatalf("identical passes flagged: %v %v", m, err)
	}
	// A later untraced run of the same seed shares only mine.iterations.
	if m, err := checkCounters(dir, "b", "w", 1, []map[string]int64{{"mine.iterations": 4}}); err != nil || len(m) != 0 {
		t.Fatalf("matching later run flagged: %v %v", m, err)
	}
	if m, _ := checkCounters(dir, "b", "w", 1, []map[string]int64{{"sat.solves": 11}}); len(m) != 1 {
		t.Errorf("changed counter across runs not flagged: %v", m)
	}
	if m, _ := checkCounters(dir, "b", "w", 2, []map[string]int64{pass, {"sat.solves": 9, "mine.iterations": 4}}); len(m) != 1 {
		t.Errorf("changed counter across passes not flagged: %v", m)
	}
	// Another build keeps its own record.
	if m, _ := checkCounters(dir, "b2", "w", 1, []map[string]int64{{"sat.solves": 11}}); len(m) != 0 {
		t.Errorf("a new build was compared against another build's record: %v", m)
	}
	// Another seed keeps its own record.
	if m, _ := checkCounters(dir, "b", "w", 3, []map[string]int64{{"sat.solves": 1}}); len(m) != 0 {
		t.Errorf("a new seed was compared against another seed's record: %v", m)
	}
}

func TestRenameModule(t *testing.T) {
	src := "// module fetch comment\nmodule fetch(input a);\nendmodule\nmodule fetchx(input b);\nendmodule\n"
	got := renameModule(src, "fetch", "fetch_j_1")
	if strings.Count(got, "fetch_j_1") != 1 || !strings.Contains(got, "module fetchx(") {
		t.Errorf("rename went wrong:\n%s", got)
	}
	if renameCanonical("design fetch interrupted=false\nrest\n", "m") != "design m interrupted=false\nrest\n" {
		t.Error("renameCanonical did not substitute the design name")
	}
}

func TestOpenLoopTimesEveryJob(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: serveWorkers, MaxJobWorkers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	sources, err := baseSources()
	if err != nil {
		t.Fatal(err)
	}
	jobs := serveJobs(7, 2, "t")
	w := &window{layer: map[string]float64{}, latByID: map[string]time.Duration{}}
	out := openLoop(srv, jobs, sources, nil, w)
	if w.completed != len(jobs) || len(w.latByID) != len(jobs) {
		t.Fatalf("timed %d jobs (%d ids), submitted %d", w.completed, len(w.latByID), len(jobs))
	}
	for i, o := range out {
		if o.err != nil || o.job.State != serve.JobDone || o.lat <= 0 {
			t.Errorf("job %d (%s): %v %s, latency %v", i, jobs[i].module, o.err, o.job.State, o.lat)
		}
	}
	due := time.Duration(float64(len(jobs)-1) / serveRate * float64(time.Second))
	if w.busy < due {
		t.Errorf("window %v shorter than the arrival schedule %v", w.busy, due)
	}
	if w.layer["sched.hit_ratio"] <= 0 || w.layer["serve.pool_reuse_ratio"] <= 0 {
		t.Errorf("repeats hit neither the cache nor the pool: %v", w.layer)
	}
}

func TestSlotBestTakesEachSlotsFastestReplay(t *testing.T) {
	ms := time.Millisecond
	out := []served{
		{lat: 30 * ms}, {lat: 100 * ms}, {lat: 20 * ms},
		{lat: 25 * ms}, {lat: 140 * ms}, {err: errors.New("refused")},
		{lat: 35 * ms}, {lat: 90 * ms}, {lat: 22 * ms},
	}
	got := slotBest(out, 3)
	want := []time.Duration{25 * ms, 90 * ms, 20 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slotBest = %v, want %v", got, want)
	}
}

func TestJobBestTakesEachJobsFastestPass(t *testing.T) {
	ms := time.Millisecond
	w := &window{}
	jobBest(w, [][]time.Duration{{30 * ms, 20 * ms, 25 * ms}, {5 * ms, 9 * ms, 7 * ms}})
	if w.completed != 2 || w.busy != 25*ms || !reflect.DeepEqual(w.jobs, []time.Duration{20 * ms, 5 * ms}) {
		t.Errorf("jobBest: completed %d, busy %v, jobs %v", w.completed, w.busy, w.jobs)
	}
}
