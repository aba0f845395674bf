package main

import (
	"fmt"
	"strings"

	"goldmine/internal/assertion"
	"goldmine/internal/core"
	"goldmine/internal/coverage"
	"goldmine/internal/holes"
	"goldmine/internal/mc"
	"goldmine/internal/monitor"
	"goldmine/internal/rtl"
	"goldmine/internal/serve"
	"goldmine/internal/sim"
	"goldmine/internal/stimgen"
)

// checkMine verifies one mined output bit:
//   - no engine fault and no interruption;
//   - every proved assertion, bounded ones included, holds under the monitor
//     over the job's suite (seed plus counterexamples) and over random;
//   - every falsified candidate's counterexample replays to a violation of
//     that candidate.
func checkMine(d *rtl.Design, seed sim.Stimulus, res *core.OutputResult, random sim.Stimulus) error {
	switch {
	case len(res.Errors) > 0:
		return fmt.Errorf("%d engine faults, first: %v", len(res.Errors), res.Errors[0])
	case res.Interrupted:
		return fmt.Errorf("interrupted")
	case len(res.Failed) != len(res.Ctx):
		return fmt.Errorf("%d falsified candidates but %d counterexamples", len(res.Failed), len(res.Ctx))
	}
	if len(res.Proved) > 0 {
		m, err := monitor.New(d, res.Assertions())
		if err != nil {
			return err
		}
		if err := m.RunSuite(mineSuite(seed, res)); err != nil {
			return err
		}
		if err := m.RunSuite([]sim.Stimulus{random}); err != nil {
			return err
		}
		for i, st := range m.AssertionStats() {
			if st.Violations > 0 {
				rec := res.Proved[i]
				return fmt.Errorf("%s assertion violated %d times: %s", rec.Status, st.Violations, rec.Assertion.Key())
			}
		}
	}
	if len(res.Failed) > 0 {
		failed := make([]*assertion.Assertion, len(res.Failed))
		for i, rec := range res.Failed {
			failed[i] = rec.Assertion
		}
		m, err := monitor.New(d, failed)
		if err != nil {
			return err
		}
		for i, stim := range res.Ctx {
			before := m.AssertionStats()[i].Violations
			if err := m.RunSuite([]sim.Stimulus{stim}); err != nil {
				return err
			}
			if m.AssertionStats()[i].Violations == before {
				return fmt.Errorf("counterexample %d does not violate %s", i, res.Failed[i].Assertion.Key())
			}
		}
	}
	return nil
}

// mineSuite is the validation suite a mining job produced: the seed followed
// by every counterexample.
func mineSuite(seed sim.Stimulus, res *core.OutputResult) []sim.Stimulus {
	var suite []sim.Stimulus
	if len(seed) > 0 {
		suite = append(suite, seed)
	}
	return append(suite, res.Ctx...)
}

// provedUnbounded counts the proved records whose proof holds at every depth.
func provedUnbounded(res *core.OutputResult) int64 {
	var n int64
	for _, rec := range res.Proved {
		if rec.Status == mc.StatusProved {
			n++
		}
	}
	return n
}

// suiteCoverage runs a suite through a fresh interpreter-path collector and
// returns covered and total points summed over every metric.
func suiteCoverage(d *rtl.Design, suite []sim.Stimulus) (covered, total int64, rep coverage.Report, col *coverage.Collector, err error) {
	col = coverage.New(d)
	if err = col.RunSuite(suite); err != nil {
		return 0, 0, rep, nil, err
	}
	rep = col.Report()
	covered, total = reportSum(rep)
	return covered, total, rep, col, nil
}

func reportSum(r coverage.Report) (covered, total int64) {
	for _, m := range []coverage.Metric{r.Line, r.Branch, r.Cond, r.Expr, r.Toggle, r.FSM} {
		covered += int64(m.Covered)
		total += int64(m.Total)
	}
	return covered, total
}

// checkClose verifies one closure run: a fresh interpreter-path collector
// over the returned suite reproduces Final, the suite fits the cycle budget,
// and no hole proven dead is hit by the suite.
func checkClose(d *rtl.Design, res *stimgen.ClosureResult, budget int) error {
	cycles := 0
	for _, s := range res.Suite {
		cycles += len(s)
	}
	if cycles != res.CyclesUsed {
		return fmt.Errorf("suite has %d cycles, result reports %d", cycles, res.CyclesUsed)
	}
	if res.CyclesUsed > budget {
		return fmt.Errorf("suite uses %d cycles, budget %d", res.CyclesUsed, budget)
	}
	_, _, rep, col, err := suiteCoverage(d, res.Suite)
	if err != nil {
		return err
	}
	if rep != res.Final {
		return fmt.Errorf("replayed coverage %+v differs from reported %+v", rep, res.Final)
	}
	open := map[string]bool{}
	for _, h := range holes.FromCollector(col) {
		open[h.Key()] = true
	}
	for _, dh := range res.Dead {
		if !open[dh.Key] {
			return fmt.Errorf("hole %s was proven dead but the suite covers it", dh.Key)
		}
	}
	return nil
}

// checkArtifact verifies a serve artifact against the canonical rendering of
// a direct core run of its base spec: renaming the module must change
// nothing but the design name.
func checkArtifact(art *serve.Artifact, module, baseCanonical string) error {
	if art == nil {
		return fmt.Errorf("no artifact")
	}
	if art.Design != module {
		return fmt.Errorf("artifact names design %q, want %q", art.Design, module)
	}
	want := renameCanonical(baseCanonical, module)
	if art.Canonical != want {
		return fmt.Errorf("artifact differs from a direct run of its base spec (%d vs %d bytes)",
			len(art.Canonical), len(want))
	}
	return nil
}

// renameCanonical substitutes the design name on the canonical rendering's
// header line.
func renameCanonical(canonical, module string) string {
	head, rest, _ := strings.Cut(canonical, "\n")
	fields := strings.Fields(head)
	if len(fields) < 2 || fields[0] != "design" {
		return canonical
	}
	fields[1] = module
	return strings.Join(fields, " ") + "\n" + rest
}
