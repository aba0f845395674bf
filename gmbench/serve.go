package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"goldmine/internal/core"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/serve"
	"goldmine/internal/telemetry"
)

const (
	// serveRate is the open-loop arrival rate in jobs per second: one job
	// every 1/serveRate seconds, well below the 2-worker capacity.
	serveRate = 8.0
	// serveSegmentRounds is the number of job-list rounds in one segment of
	// the open loop: 111 jobs, so that each percentile has at least ten
	// slots beyond it. A run replays the segment as many times as fit its
	// seconds at serveRate, rounded, and at least once: twice at 25 s.
	serveSegmentRounds = 6
	// serveWorkers is the daemon's job-executing worker count.
	serveWorkers = 2
	// serveWait bounds how long the benchmark waits for any one job.
	serveWait = 120 * time.Second
	// serveReplayBatch is how many restarts each setup_s sample is the mean
	// of; setup_s is the median of serveSetups samples, after one untimed
	// batch. Half the samples are taken before the open loop and half after
	// it, so that they span the run.
	serveReplayBatch = 4
	serveSetups      = 16
)

// runServe measures the serve workload: an in-process goldmined with a WAL
// and a corpus journal, restarted over the journals of an untimed recording
// pass (setup_s is that replay), then fed the seeded job list in an open loop
// at serveRate from serveTenants tenants. The list is one segment replayed
// back to back under fresh module names, so each slot of the segment is
// submitted at the same offset, with the same spec, tenant and neighbours, in
// every replay. Each job is timed from when it was due to when its WaitJob
// returned, and each slot counts at its fastest replay (see slotBest). Every
// artifact is checked afterwards, untimed, against a direct core run of its
// base spec.
func runServe(cfg runConfig, tr *telemetry.Tracer) (*window, error) {
	dir, err := os.MkdirTemp(cfg.work, "serve-")
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{
		Workers:       serveWorkers,
		MaxJobWorkers: 1,
		QueueDepth:    4096,
		WALPath:       filepath.Join(dir, "jobs.wal"),
		CorpusPath:    filepath.Join(dir, "corpus.jsonl"),
	}
	sources, err := baseSources()
	if err != nil {
		return nil, err
	}

	// Recording pass: one round submitted at once, waited for, drained.
	rec, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	for _, j := range serveJobs(cfg.seed^0x5eed, 1, "rec") {
		job, err := rec.Submit(jobSpec(j, sources))
		if err != nil {
			return nil, err
		}
		if _, err := waitJob(rec, job.ID); err != nil {
			return nil, err
		}
	}
	if err := rec.Shutdown(context.Background()); err != nil {
		return nil, err
	}

	// Set-up samples restart over a copy of the recorded journals: the open
	// loop appends to the originals, and half the samples come after it.
	w := &window{layer: map[string]float64{}, latByID: map[string]time.Duration{}}
	scfg.Tracer = tr
	setupCfg := scfg
	setupCfg.WALPath = filepath.Join(dir, "setup.wal")
	setupCfg.CorpusPath = filepath.Join(dir, "setup-corpus.jsonl")
	if err := copyFile(scfg.WALPath, setupCfg.WALPath); err != nil {
		return nil, err
	}
	if err := copyFile(scfg.CorpusPath, setupCfg.CorpusPath); err != nil {
		return nil, err
	}
	if err := timeRestarts(nil, 1, setupCfg); err != nil {
		return nil, err
	}
	if err := timeRestarts(w, serveSetups/2, setupCfg); err != nil {
		return nil, err
	}
	srv, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}

	seg := len(serveJobs(cfg.seed, serveSegmentRounds, ""))
	replays := int(math.Max(1, math.Round(float64(cfg.seconds)*serveRate/float64(seg))))
	var jobs []serveJob
	for r := 0; r < replays; r++ {
		jobs = append(jobs, serveJobs(cfg.seed, serveSegmentRounds, fmt.Sprintf("j%d", r))...)
	}
	res := openLoop(srv, jobs, sources, tr, w)
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	if err := timeRestarts(w, serveSetups-serveSetups/2, setupCfg); err != nil {
		return nil, err
	}
	w.jobs = slotBest(res, seg)
	return w, checkServe(jobs, res, w)
}

// timeRestarts appends n set-up samples to w.setups, each the mean of
// serveReplayBatch restarts of a daemon over cfg's journals; with a nil w
// it only warms up. Each restart starts on a collected heap.
func timeRestarts(w *window, n int, cfg serve.Config) error {
	for i := 0; i < n; i++ {
		var total time.Duration
		for k := 0; k < serveReplayBatch; k++ {
			settle()
			t0 := time.Now()
			srv, err := serve.New(cfg)
			total += time.Since(t0)
			if err != nil {
				return err
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				return err
			}
		}
		if w != nil {
			w.setups = append(w.setups, total/serveReplayBatch)
		}
	}
	return nil
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// slotBest returns each segment slot's latency at its fastest replay,
// skipping jobs that failed. A replay repeats the slot's work and its
// arrival pattern exactly, so the fastest one is the latency the daemon
// gives that slot, and the others add whatever interference from outside
// the benchmark landed on them.
func slotBest(out []served, seg int) []time.Duration {
	var best []time.Duration
	for k := 0; k < seg; k++ {
		var b time.Duration
		for i := k; i < len(out); i += seg {
			if out[i].err == nil && (b == 0 || out[i].lat < b) {
				b = out[i].lat
			}
		}
		if b > 0 {
			best = append(best, b)
		}
	}
	return best
}

// baseSources returns each serve base design's Verilog source.
func baseSources() (map[string]string, error) {
	out := map[string]string{}
	for _, b := range serveBases {
		bench, err := designs.Get(b.design)
		if err != nil {
			return nil, err
		}
		out[b.design] = bench.Source
	}
	return out, nil
}

// renameModule gives the top module of a single-module source a new name.
func renameModule(src, from, to string) string {
	re := regexp.MustCompile(`\bmodule\s+` + regexp.QuoteMeta(from) + `\b`)
	done := false
	return re.ReplaceAllStringFunc(src, func(m string) string {
		if done {
			return m
		}
		done = true
		return "module " + to
	})
}

// jobSpec is the daemon spec of a serve job: the base design's source under
// the job's module name, one output bit, no seed stimulus.
func jobSpec(j serveJob, sources map[string]string) serve.JobSpec {
	bit := j.base.bit
	window := 1
	if b, err := designs.Get(j.base.design); err == nil {
		window = b.Window
	}
	return serve.JobSpec{
		Tenant: j.tenant,
		Source: renameModule(sources[j.base.design], j.base.design, j.module),
		Output: j.base.output,
		Bit:    &bit,
		Seed:   "none",
		Window: &window,
	}
}

func waitJob(srv *serve.Server, id string) (serve.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveWait)
	defer cancel()
	return srv.WaitJob(ctx, id)
}

// served is the outcome of one submitted job and its latency from when it
// was due.
type served struct {
	job serve.Job
	err error
	lat time.Duration
}

// openLoop submits job i at start + i/serveRate whatever the daemon's state,
// with one WaitJob waiter per job, and records each job's latency from its
// due time, the generator's lateness and the daemon's counters. The window
// runs from the first due time to the last completion.
func openLoop(srv *serve.Server, jobs []serveJob, sources map[string]string, tr *telemetry.Tracer, w *window) []served {
	specs := make([]serve.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = jobSpec(j, sources)
	}
	out := make([]served, len(jobs))
	done := make([]time.Time, len(jobs))
	var submits []time.Duration
	var late time.Duration
	st0 := srv.Stats()
	a0 := settle()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range jobs {
		due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		if l := time.Since(due); l > late {
			late = l
		}
		sp := tr.Root("serve.submit")
		s0 := time.Now()
		job, err := srv.Submit(specs[i])
		submits = append(submits, time.Since(s0))
		sp.End()
		if err != nil {
			out[i].err = err
			continue
		}
		wg.Add(1)
		go func(i int, id string, due time.Time) {
			defer wg.Done()
			out[i].job, out[i].err = waitJob(srv, id)
			done[i] = time.Now()
			out[i].lat = done[i].Sub(due)
		}(i, job.ID, due)
	}
	wg.Wait()
	w.alloc = allocated() - a0
	st1 := srv.Stats()
	var last time.Time
	for i := range jobs {
		if out[i].err != nil {
			continue
		}
		w.completed++
		w.latByID[out[i].job.ID] = out[i].lat
		if done[i].After(last) {
			last = done[i]
		}
	}
	w.busy = last.Sub(start)
	w.layer["serve.late_ms"] = ms(late)
	w.layer["serve.submit_ms"] = ms(median(submits))
	w.layer["serve.wal_appends"] = float64(st1.WALAppends - st0.WALAppends)
	if n := (st1.Pool.Builds - st0.Pool.Builds) + (st1.Pool.Reuses - st0.Pool.Reuses); n > 0 {
		w.layer["serve.pool_reuse_ratio"] = float64(st1.Pool.Reuses-st0.Pool.Reuses) / float64(n)
	}
	hits := (st1.Cache.Hits + st1.Cache.Shared) - (st0.Cache.Hits + st0.Cache.Shared)
	if n := st1.Cache.Lookups() - st0.Cache.Lookups(); n > 0 {
		w.layer["sched.hit_ratio"] = float64(hits) / float64(n)
	}
	return out
}

// baseRun is a direct core run of one serve base spec.
type baseRun struct {
	canonical       string
	provedUnbounded int64
	covered, points int64
}

// directRun mines one base target with a fresh engine and the settings a
// serve job resolves to.
func directRun(t target, src string) (*baseRun, error) {
	d, err := rtl.ElaborateSource(src)
	if err != nil {
		return nil, err
	}
	b, err := designs.Get(t.design)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewOptions().Window(b.Window).Workers(1).Engine(d)
	if err != nil {
		return nil, err
	}
	sig := d.Signal(t.output)
	if sig == nil {
		return nil, fmt.Errorf("design %s has no output %s", t.design, t.output)
	}
	res, err := eng.MineTargets(context.Background(), []core.Target{{Output: sig, Bit: t.bit}}, nil)
	if err != nil {
		return nil, err
	}
	br := &baseRun{canonical: res.Canonical()}
	for _, o := range res.Outputs {
		br.provedUnbounded += provedUnbounded(o)
		cov, tot, _, _, err := suiteCoverage(d, o.Ctx)
		if err != nil {
			return nil, err
		}
		br.covered += cov
		br.points += tot
	}
	return br, nil
}

// checkServe verifies every job's artifact against a direct run of its base
// spec and sums the result-quality metrics over the completed jobs.
func checkServe(jobs []serveJob, out []served, w *window) error {
	sources, err := baseSources()
	if err != nil {
		return err
	}
	bases := map[target]*baseRun{}
	for i, j := range jobs {
		w.attempted++
		o := out[i]
		if o.err != nil {
			w.fail("%s: %v", j.module, o.err)
			continue
		}
		if o.job.State != serve.JobDone {
			w.fail("%s: job %s ended %s: %s", j.module, o.job.ID, o.job.State, o.job.Err)
			continue
		}
		br := bases[j.base]
		if br == nil {
			if br, err = directRun(j.base, sources[j.base.design]); err != nil {
				return err
			}
			bases[j.base] = br
		}
		if err := checkArtifact(o.job.Artifact, j.module, br.canonical); err != nil {
			w.fail("%s (%s): %v", j.module, j.base, err)
			continue
		}
		w.provedUnbounded += br.provedUnbounded
		w.covered += br.covered
		w.points += br.points
	}
	return nil
}
