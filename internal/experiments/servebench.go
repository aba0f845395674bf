// Serving benchmark: the machine-readable robustness evidence behind the
// goldmined daemon — sustained jobs/sec and latency percentiles on a pooled
// engine fleet, cross-run verdict-cache reuse, and recovery time after a
// simulated SIGKILL mid-load. scripts/bench.sh writes its output to
// BENCH_serve.json.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"goldmine/internal/serve"
)

// serveBenchDesigns are the job payloads: small designs so the benchmark
// exercises the serving machinery (queueing, pooling, journaling), not the
// model checker.
var serveBenchDesigns = []string{"arbiter2", "decode"}

// serveBenchJobs is the total number of jobs in the throughput phase.
const serveBenchJobs = 24

// ServeBenchReport is the full benchmark output.
type ServeBenchReport struct {
	Workers int `json:"workers"`
	Jobs    int `json:"jobs"`
	// Throughput phase: all jobs submitted up front against a cold daemon.
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	// ColdHitRate / WarmHitRate are the process-wide verdict-cache hit rates
	// after the first pass and after an identical second pass: the warm pass
	// answers almost every check from the cross-run cache.
	ColdHitRate    float64 `json:"cold_cache_hit_rate"`
	WarmHitRate    float64 `json:"warm_cache_hit_rate"`
	WarmJobsPerSec float64 `json:"warm_jobs_per_sec"`
	// EngineBuilds / EngineReuses count engine-pool acquire outcomes.
	EngineBuilds int64 `json:"engine_builds"`
	EngineReuses int64 `json:"engine_reuses"`
	// Recovery phase: a third pass is killed mid-load (WAL intact) and a new
	// daemon restarts on the journal. RecoveredDone jobs were re-served from
	// the WAL without recomputation; ResumedPending jobs were re-run.
	// RecoveryMS is restart-to-all-jobs-terminal wall time.
	KilledAfterDone int     `json:"killed_after_done"`
	RecoveredDone   int64   `json:"recovered_done"`
	ResumedPending  int64   `json:"resumed_pending"`
	RecoveryMS      float64 `json:"recovery_ms"`
	// RecoveredIdentical: every artifact recovered from the WAL is
	// byte-identical to the one computed before the kill.
	RecoveredIdentical bool `json:"recovered_identical"`
}

func serveBenchSpec(i int) serve.JobSpec {
	return serve.JobSpec{
		Tenant: fmt.Sprintf("tenant%d", i%4),
		Design: serveBenchDesigns[i%len(serveBenchDesigns)],
	}
}

// runServePass submits n jobs against s and waits for them all, returning
// per-job latencies in submit order. Every job is waited on concurrently, so
// its latency runs from its submit to its own finish, not to the moment an
// in-order waiter got round to it.
func runServePass(s *serve.Server, n int) ([]time.Duration, []string, error) {
	ids := make([]string, n)
	starts := make([]time.Time, n)
	for i := 0; i < n; i++ {
		starts[i] = time.Now()
		j, err := s.Submit(serveBenchSpec(i))
		if err != nil {
			return nil, nil, fmt.Errorf("submit %d: %w", i, err)
		}
		ids[i] = j.ID
	}
	lats := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := s.WaitJob(context.Background(), id)
			lats[i] = time.Since(starts[i])
			if err == nil && j.State != serve.JobDone {
				err = fmt.Errorf("ended %s (%s)", j.State, j.Err)
			}
			if err != nil {
				errs[i] = fmt.Errorf("job %s: %w", id, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return lats, ids, nil
}

func percentile(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return float64(s[idx].Microseconds()) / 1000
}

// ServeBench runs the daemon load harness and writes the JSON report to w.
func ServeBench(w io.Writer, workers int) error {
	if workers < 1 {
		workers = 1
	}
	dir, err := os.MkdirTemp("", "servebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{
		Workers:       workers,
		QueueDepth:    serveBenchJobs * 2,
		MaxAttempts:   3,
		DrainTimeout:  time.Minute,
		MaxJobWorkers: 1,
		Tracer:        Telemetry,
	}
	rep := &ServeBenchReport{Workers: workers, Jobs: serveBenchJobs}

	// Phase 1+2: cold and warm passes on one daemon (no WAL — throughput).
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	coldStart := time.Now()
	lats, _, err := runServePass(s, serveBenchJobs)
	if err != nil {
		return err
	}
	coldWall := time.Since(coldStart)
	rep.JobsPerSec = float64(serveBenchJobs) / coldWall.Seconds()
	rep.P50MS = percentile(lats, 0.50)
	rep.P99MS = percentile(lats, 0.99)
	rep.ColdHitRate = s.Cache().Stats().HitRate()

	warmStart := time.Now()
	if _, _, err := runServePass(s, serveBenchJobs); err != nil {
		return err
	}
	rep.WarmJobsPerSec = float64(serveBenchJobs) / time.Since(warmStart).Seconds()
	rep.WarmHitRate = s.Cache().Stats().HitRate()
	st := s.Stats()
	rep.EngineBuilds = st.Pool.Builds
	rep.EngineReuses = st.Pool.Reuses
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = s.Shutdown(ctx)
	cancel()
	if err != nil {
		return err
	}

	// Phase 3: durability. A journaled daemon is killed mid-load; a second
	// daemon restarts on the WAL, re-serves finished jobs from the journal,
	// and re-runs the rest.
	walPath := filepath.Join(dir, "wal.jsonl")
	cfg2 := cfg
	cfg2.WALPath = walPath
	s2, err := serve.New(cfg2)
	if err != nil {
		return err
	}
	ids := make([]string, serveBenchJobs)
	for i := 0; i < serveBenchJobs; i++ {
		j, err := s2.Submit(serveBenchSpec(i))
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		ids[i] = j.ID
	}
	// Kill once roughly half the jobs are done.
	preKill := map[string]string{}
	for {
		done := 0
		for _, id := range ids {
			if j, ok := s2.Job(id); ok && j.State == serve.JobDone {
				done++
			}
		}
		if done >= serveBenchJobs/2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s2.Kill()
	for _, id := range ids {
		if j, ok := s2.Job(id); ok && j.State == serve.JobDone && j.Artifact != nil {
			preKill[id] = j.Artifact.Canonical
		}
	}
	rep.KilledAfterDone = len(preKill)

	recStart := time.Now()
	s3, err := serve.New(cfg2)
	if err != nil {
		return err
	}
	for _, id := range ids {
		j, err := s3.WaitJob(context.Background(), id)
		if err != nil {
			return fmt.Errorf("recovery wait %s: %w", id, err)
		}
		if j.State != serve.JobDone {
			return fmt.Errorf("recovered job %s ended %s (%s)", id, j.State, j.Err)
		}
	}
	rep.RecoveryMS = float64(time.Since(recStart).Microseconds()) / 1000
	// Byte-identity across the kill: every job done before the crash has the
	// same canonical artifact after restart, whether it was re-served from
	// the WAL (the common case, counted in RecoveredDone) or — in the narrow
	// race where a job finished as the kill landed — deterministically
	// recomputed.
	rep.RecoveredIdentical = true
	for id, canon := range preKill {
		j, _ := s3.Job(id)
		if j.Artifact == nil || j.Artifact.Canonical != canon {
			rep.RecoveredIdentical = false
		}
	}
	st3 := s3.Stats()
	rep.RecoveredDone = st3.RecoveredDone
	rep.ResumedPending = st3.ResumedPending
	ctx, cancel = context.WithTimeout(context.Background(), time.Minute)
	err = s3.Shutdown(ctx)
	cancel()
	if err != nil {
		return err
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
