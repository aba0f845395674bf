package main

import (
	"fmt"
	"math/rand"
)

// target names one output bit of a bundled design; bit -1 means every bit.
type target struct {
	design, output string
	bit            int
}

func (t target) String() string { return fmt.Sprintf("%s.%s[%d]", t.design, t.output, t.bit) }

// mineSatPool is the mine-sat job pool: output bits whose checks all run on
// the incremental SAT session (counterexample canonicalization, BMC,
// induction), including the bounded verdicts of b11, b12 and b17. Its shape
// keeps the percentiles steady: the median job falls among b04's eight
// rlast bits, which cost the same, and the heavy bits (b11 char_out[3],
// b12, b17 bus[0], pipeline) carry the 90th percentile and most of the
// time.
var mineSatPool = []target{
	{"b04", "rmax", 6}, {"b04", "rmax", 7}, {"b04", "rlast", -1},
	{"b11", "char_out", 0}, {"b11", "char_out", 3}, {"b11", "ready", -1},
	{"b12", "win", -1}, {"b12", "lose", -1},
	{"b17", "bus", 0}, {"b17", "gnt_a", -1},
	{"b18", "busy_b", -1},
	{"fetch", "fetch_pc", 0}, {"fetch", "valid", -1},
	{"pipeline", "is_alu", -1}, {"pipeline", "illegal", -1},
}

// mineExplicitPool is the mine-explicit job pool: designs small enough for
// the explicit-state engine, which then answers every check. It is a sample
// of each design's bits, small enough that a 25 s run makes eight passes; with
// three quick b06 jobs of seven, the median job is b03's.
var mineExplicitPool = []target{
	{"arbiter4", "gnt0", -1}, {"arbiter4", "gnt1", -1},
	{"b03", "busy", -1},
	{"b06", "cc_mux", -1}, {"b06", "uscita", -1},
	{"b10", "tamper", -1},
}

// Nominal pass lengths in seconds on a 2-CPU host: a run makes --seconds
// divided by these passes (at least minPasses), so every run of a given
// length does the same work whatever the seed.
const (
	mineSatPass      = 2.0
	mineExplicitPass = 3.0
	closePass        = 3.0
	minPasses        = 3
)

// closeDesigns are the close workload's designs with the number of closure
// seeds each gets per pass. b12 and b17 carry most of the reach ladders and
// induction proofs; the rest are quick runs with dead code. The weights put
// the job-time median inside b12's runs and the 90th percentile inside
// b17's, away from the jumps between designs.
var closeDesigns = []string{"b12", "b17", "b06", "b09", "b10", "b18", "decode", "pipeline"}

var closeSeeds = map[string]int{"b12": 4, "b17": 4, "b06": 1, "b09": 1, "b10": 1, "b18": 1, "decode": 1, "pipeline": 1}

// serveBase is one serve spec and how many fresh jobs of it each round
// submits.
type serveBase struct {
	target
	perRound int
}

// serveBases are the serve workload's specs, each a single output bit. The
// weights keep each percentile inside the jobs of one spec: fetch_pc[5]
// (15 to 25 ms) makes 65% of the jobs and holds the median, and b17's
// bus[2] (about 100 ms) makes 22% and holds the 90th percentile; the
// repeats, the fastest 14%, sit below both.
var serveBases = []serveBase{
	{target{"fetch", "fetch_pc", 5}, 12},
	{target{"b17", "bus", 2}, 4},
}

const (
	// serveRepeats is how many jobs of each serve round after the first
	// repeat a spec of the round before (a verdict-cache and engine-pool
	// hit); the rest are fresh.
	serveRepeats = 3
	// serveRepeatLag keeps a repeat at least this many jobs after the job it
	// repeats, so the original has finished and the repeat is a true hit.
	serveRepeatLag = 8
	// serveTenants is the number of tenants jobs are spread over.
	serveTenants = 4
)

// closeJob is one coverage-closure run.
type closeJob struct {
	design string
	seed   int64
}

// closeJobs returns the close workload's job list for a seed: every design
// closeSeeds times, each with its own closure seed, in a seeded order.
func closeJobs(seed int64) []closeJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []closeJob
	for _, d := range closeDesigns {
		for i := 0; i < closeSeeds[d]; i++ {
			jobs = append(jobs, closeJob{design: d, seed: rng.Int63n(1 << 30)})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// serveJob is one submission of the serve workload.
type serveJob struct {
	base   target
	module string // the renamed module name the job submits
	tenant string
	// repeat marks a job that resubmits an earlier job's exact spec.
	repeat bool
}

// serveJobs returns the serve workload's job list for a seed: rounds rounds,
// each submitting every base perRound times under fresh module names in a
// seeded order. Every round after the first also resubmits serveRepeats
// specs of the round before, at seeded positions at least serveRepeatLag
// jobs in, so that the original has finished. The bases repeated are fixed,
// so every seed yields the same multiset of work.
func serveJobs(seed int64, rounds int, prefix string) []serveJob {
	rng := rand.New(rand.NewSource(seed))
	tenant := func() string { return fmt.Sprintf("t%d", rng.Intn(serveTenants)) }
	var jobs []serveJob
	var prev map[target][]serveJob
	fresh := 0
	for r := 0; r < rounds; r++ {
		var round []serveJob
		cur := map[target][]serveJob{}
		for _, b := range serveBases {
			for k := 0; k < b.perRound; k++ {
				j := serveJob{base: b.target, module: fmt.Sprintf("%s_%s_%d", b.design, prefix, fresh), tenant: tenant()}
				fresh++
				round = append(round, j)
				cur[b.target] = append(cur[b.target], j)
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for k := 0; r > 0 && k < serveRepeats; k++ {
			srcs := prev[serveBases[(r*serveRepeats+k)%len(serveBases)].target]
			src := srcs[rng.Intn(len(srcs))]
			src.repeat = true
			src.tenant = tenant()
			pos := serveRepeatLag + rng.Intn(len(round)-serveRepeatLag+1)
			round = append(round[:pos], append([]serveJob{src}, round[pos:]...)...)
		}
		jobs = append(jobs, round...)
		prev = cur
	}
	return jobs
}
