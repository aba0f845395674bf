package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"goldmine/internal/stimgen"
	"goldmine/internal/telemetry"
)

// closeBudget is the cycle budget of every closure run.
const closeBudget = 2000

// runClose measures the close workload: passes over the seeded job list of
// stimgen.CloseCoverage runs at Workers 1 with the compiled simulator, a
// random fill to the budget, and a dead-hole journal of each run's own. The
// first pass's outputs are checked; later passes must reproduce them.
func runClose(cfg runConfig, tr *telemetry.Tracer) (*window, error) {
	w := &window{layer: map[string]float64{}}
	dir, err := os.MkdirTemp(cfg.work, "close-")
	if err != nil {
		return nil, err
	}
	if err := timeSetups(nil, 1, closeDesigns, false, tr); err != nil {
		return nil, err
	}
	jobs := closeJobs(cfg.seed)
	passes := passCount(cfg.seconds, closePass)
	first := make([]*stimgen.ClosureResult, len(jobs))
	var firstBS map[string]*built
	prints := make([]string, len(jobs))
	times := make([][]time.Duration, len(jobs))
	var calls, solves, closed, dead int64
	for p := 0; p < passes; p++ {
		if err := timeSetups(w, setupsPerPass, closeDesigns, false, tr); err != nil {
			return nil, err
		}
		bs, err := buildDesigns(closeDesigns, false, tr)
		if err != nil {
			return nil, err
		}
		before := counters(tr)
		pass := map[string]int64{}
		results := make([]*stimgen.ClosureResult, len(jobs))
		a0 := settle()
		for i, j := range jobs {
			opts := stimgen.ClosureOptions{
				TotalCycles: closeBudget,
				FillRandom:  true,
				Compiled:    true,
				DeadFile:    filepath.Join(dir, fmt.Sprintf("dead-%d-%d.jsonl", p, i)),
			}
			opts.Workers = 1
			opts.Seed = j.seed
			opts.Telemetry = tr
			ctx, sp := tr.StartSpan(context.Background(), "bench.job",
				telemetry.String("job", fmt.Sprintf("%s/%d", j.design, j.seed)))
			j0 := time.Now()
			res, err := stimgen.CloseCoverage(ctx, bs[j.design].design, opts)
			lat := time.Since(j0)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("close %s seed %d: %w", j.design, j.seed, err)
			}
			times[i] = append(times[i], lat)
			results[i] = res
		}
		w.alloc += allocated() - a0
		for k, v := range delta(before, counters(tr), "sat.solves", "mc.checks") {
			pass[k] = v
		}
		for i, res := range results {
			j := jobs[i]
			w.attempted++
			cov, _ := reportSum(res.Final)
			pass["coverage_covered"] += cov
			pass["stimgen.reach_solves"] += int64(res.ReachSolves)
			pass["proved_unbounded"] += int64(len(res.Dead))
			calls += int64(res.ReachCalls)
			solves += int64(res.ReachSolves)
			dead += int64(len(res.Dead))
			for _, it := range res.Iterations {
				closed += int64(it.Closed + it.Dead)
			}
			fp := closeFingerprint(res)
			if p == 0 {
				first[i], prints[i] = res, fp
			} else if fp != prints[i] {
				w.fail("%s seed %d: pass %d result differs from pass 1", j.design, j.seed, p+1)
			}
		}
		w.passes = append(w.passes, pass)
		if p == 0 {
			firstBS = bs
		}
	}
	jobBest(w, times)
	w.layer["stimgen.reach_calls"] = float64(calls)
	w.layer["stimgen.reach_solves"] = float64(solves)
	w.layer["stimgen.dead_holes"] = float64(dead)
	if solves > 0 {
		w.layer["stimgen.closed_per_solve"] = float64(closed) / float64(solves)
	}
	for i, j := range jobs {
		res := first[i]
		if err := checkClose(firstBS[j.design].design, res, closeBudget); err != nil {
			w.fail("%s seed %d: %v", j.design, j.seed, err)
		}
		cov, tot := reportSum(res.Final)
		w.covered += cov
		w.points += tot
		w.provedUnbounded += int64(len(res.Dead))
	}
	return w, nil
}

// closeFingerprint renders what a closure run must reproduce exactly: the
// suite, the final coverage, the dead holes and the query counts.
func closeFingerprint(res *stimgen.ClosureResult) string {
	b := &strings.Builder{}
	fmt.Fprintf(b, "final %+v cycles %d calls %d solves %d\n", res.Final, res.CyclesUsed, res.ReachCalls, res.ReachSolves)
	for _, dh := range res.Dead {
		fmt.Fprintf(b, "dead %s %d %d\n", dh.Key, dh.Depth, dh.K)
	}
	for _, s := range res.Suite {
		fmt.Fprintf(b, "stim %v\n", s)
	}
	return b.String()
}
