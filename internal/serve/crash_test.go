package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"goldmine/internal/assertion"
	"goldmine/internal/corpus"
	"goldmine/internal/designs"
	"goldmine/internal/rtl"
	"goldmine/internal/sched"
	"goldmine/internal/stimgen"
	"goldmine/internal/telemetry"
)

const crashArbiterSrc = `
module arbiter2(clk, rst, req0, req1, gnt0, gnt1);
  input clk, rst;
  input req0, req1;
  output reg gnt0, gnt1;
  always @(posedge clk)
    if (rst) begin gnt0 <= 0; gnt1 <= 0; end
    else begin
      gnt0 <= (~gnt0 & req0) | (gnt0 & req0 & ~req1);
      gnt1 <= (gnt0 & req1) | (~gnt0 & ~req0 & req1);
    end
endmodule`

func gnt0Assertion(ant ...assertion.Prop) *assertion.Assertion {
	return &assertion.Assertion{
		Output: "gnt0", Antecedent: ant, Consequent: assertion.P("gnt0", 1, 0, 1),
		Window: 1, Confidence: 1, Support: 8,
	}
}

// durableStore drives one persisted log through its owner's own API.
type durableStore struct {
	name string
	// record writes the short log that the crash test cuts.
	record func(t *testing.T, path string)
	// load opens the log as its owner does at start-up and renders the
	// recovered state, one string per job, entry or hole.
	load func(t *testing.T, path string) []string
	// append opens the log and commits one more record, which adds extra
	// to the rendered state.
	append func(t *testing.T, path string)
	extra  string
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func durableStores(t *testing.T) []durableStore {
	d, err := rtl.ElaborateSource(crashArbiterSrc)
	must(t, err)
	fp := sched.DesignFingerprint(d)
	id := func(s string) telemetry.Attr { return telemetry.String("id", s) }
	return []durableStore{
		{
			name: "wal",
			record: func(t *testing.T, path string) {
				w, _ := openTestWAL(t, path)
				must(t, w.append(walSubmit, &JobSpec{Tenant: "t", Design: "arbiter2"}, id("j000000")))
				must(t, w.append(walStart, nil, id("j000000"), telemetry.Int("attempt", 1)))
				must(t, w.append(walDone, &Artifact{Design: "arbiter2", Canonical: "c\n"},
					id("j000000"), telemetry.Int("elapsed_us", 10)))
				must(t, w.append(walSubmit, &JobSpec{Tenant: "u", Design: "decode"}, id("j000001")))
				must(t, w.close())
			},
			load: func(t *testing.T, path string) []string {
				w, jobs := openTestWAL(t, path)
				must(t, w.close())
				var out []string
				for _, j := range jobs {
					out = append(out, fmt.Sprintf("%s %s %s %d %v", j.ID, j.Spec.Design, j.State, j.Attempts, j.Artifact != nil))
				}
				return out
			},
			append: func(t *testing.T, path string) {
				w, _ := openTestWAL(t, path)
				must(t, w.append(walSubmit, &JobSpec{Tenant: "t", Design: "fetch"}, id("j000009")))
				must(t, w.close())
			},
			extra: "j000009 fetch queued 0 false",
		},
		{
			name: "corpus",
			record: func(t *testing.T, path string) {
				c, st, err := corpus.OpenStore(path)
				must(t, err)
				c.Ingest("r1", d, []corpus.Mined{{A: gnt0Assertion(assertion.P("rst", 0, 1, 1)), Status: "proved"}})
				c.Ingest("r2", d, []corpus.Mined{{A: gnt0Assertion(assertion.P("req0", 0, 0, 1)), Status: "proved"}})
				must(t, st.Err())
				must(t, st.Close())
			},
			load: func(t *testing.T, path string) []string {
				c, st, err := corpus.OpenStore(path)
				must(t, err)
				must(t, st.Close())
				var out []string
				for _, e := range c.Entries() {
					out = append(out, e.A.String())
				}
				sort.Strings(out)
				return out
			},
			append: func(t *testing.T, path string) {
				c, st, err := corpus.OpenStore(path)
				must(t, err)
				c.Ingest("r3", d, []corpus.Mined{{A: gnt0Assertion(assertion.P("rst", 0, 1, 1), assertion.P("req1", 0, 1, 1)), Status: "proved"}})
				must(t, st.Err())
				must(t, st.Close())
			},
			extra: "req1 && rst ==> X(!gnt0)",
		},
		{
			name: "dead",
			record: func(t *testing.T, path string) {
				must(t, stimgen.AppendDeadHoles(path, []stimgen.DeadHole{{Design: fp, Key: "line:1", Depth: 2, K: 1}}))
				must(t, stimgen.AppendDeadHoles(path, []stimgen.DeadHole{
					{Design: fp, Key: "line:2", Depth: 3, K: 1},
					{Design: fp, Key: "line:3", Depth: 4, K: 2},
				}))
			},
			load: func(t *testing.T, path string) []string {
				dead, err := stimgen.LoadDeadHoles(path, d)
				must(t, err)
				var out []string
				for k := range dead {
					out = append(out, k)
				}
				sort.Strings(out)
				return out
			},
			append: func(t *testing.T, path string) {
				must(t, stimgen.AppendDeadHoles(path, []stimgen.DeadHole{{Design: fp, Key: "line:9", Depth: 1, K: 1}}))
			},
			extra: "line:9",
		},
	}
}

// TestStoresSurviveCrashAtEveryByte is the crash gate of every durable log:
// a short recorded log, cut at each byte offset as a kill could leave it,
// must reload as the state of the records committed before the cut, take the
// next append, and reopen with exactly that append on top.
func TestStoresSurviveCrashAtEveryByte(t *testing.T) {
	for _, st := range durableStores(t) {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full")
			st.record(t, full)
			data, err := os.ReadFile(full)
			must(t, err)
			// committed[k] is the state of the first k records: the log cut
			// just past its k-th newline.
			path := filepath.Join(dir, "cut")
			var committed [][]string
			for off := 0; off <= len(data); off++ {
				if off == 0 || data[off-1] == '\n' {
					must(t, os.WriteFile(path, data[:off], 0o644))
					committed = append(committed, st.load(t, path))
				}
			}
			if n := len(committed[len(committed)-1]); n < 2 {
				t.Fatalf("recorded log recovers %d items; the test is vacuous", n)
			}
			for off := 0; off <= len(data); off++ {
				k := bytes.Count(data[:off], []byte{'\n'})
				must(t, os.WriteFile(path, data[:off], 0o644))
				if got := st.load(t, path); !reflect.DeepEqual(got, committed[k]) {
					t.Fatalf("cut at byte %d: recovered %q, want the %d committed records' %q", off, got, k, committed[k])
				}
				st.append(t, path)
				// The append kept every committed byte and left no fragment.
				raw, err := os.ReadFile(path)
				must(t, err)
				kept := data[:bytes.LastIndexByte(data[:off], '\n')+1]
				if !bytes.HasPrefix(raw, kept) || raw[len(raw)-1] != '\n' {
					t.Fatalf("cut at byte %d, then one append: file %q does not extend the committed %q by whole lines", off, raw, kept)
				}
				want := append(append([]string(nil), committed[k]...), st.extra)
				got := st.load(t, path)
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cut at byte %d, then one append: recovered %q, want %q", off, got, want)
				}
			}
		})
	}
}

// TestLogsFromPreJournalWritersLoad loads logs written by the writers that
// predate internal/journal (testdata/prejournal), each ending in the torn
// tail a kill leaves, and requires the state those writers' own loaders
// recovered from them (the .want files).
func TestLogsFromPreJournalWritersLoad(t *testing.T) {
	dir := filepath.Join("testdata", "prejournal")
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		must(t, err)
		return raw
	}
	// Opens may write to the log (a corpus header), so each runs on a copy.
	cp := func(name string) string {
		path := filepath.Join(t.TempDir(), name)
		must(t, os.WriteFile(path, read(name), 0o644))
		return path
	}
	asJSON := func(v any) string {
		raw, err := json.MarshalIndent(v, "", "  ")
		must(t, err)
		return string(raw) + "\n"
	}

	w, jobs := openTestWAL(t, cp("jobs.wal"))
	must(t, w.close())
	if got, want := asJSON(jobs), string(read("jobs.want.json")); got != want {
		t.Errorf("WAL replay differs:\n%s\nwant:\n%s", got, want)
	}

	renderCorpus := func(c *corpus.Corpus) string {
		var b strings.Builder
		for _, e := range c.Entries() {
			fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%d|%s|%s|%s|%d|%g|%d\n",
				e.NS, e.Design, e.Key, e.Status, e.Method, e.Seen, e.FirstRun, e.LastRun,
				e.A.String(), e.A.Window, e.A.Confidence, e.A.Support)
		}
		return b.String()
	}
	wantCorpus := string(read("corpus.want"))
	loaded, err := corpus.Load(cp("corpus.jsonl"))
	must(t, err)
	if got := renderCorpus(loaded); got != wantCorpus {
		t.Errorf("corpus Load differs:\n%s\nwant:\n%s", got, wantCorpus)
	}
	opened, store, err := corpus.OpenStore(cp("corpus.jsonl"))
	must(t, err)
	must(t, store.Close())
	if got := renderCorpus(opened); got != wantCorpus {
		t.Errorf("corpus OpenStore differs:\n%s\nwant:\n%s", got, wantCorpus)
	}

	b, err := designs.Get("b12")
	must(t, err)
	d, err := b.Design()
	must(t, err)
	dead, err := stimgen.LoadDeadHoles(cp("dead.jsonl"), d)
	must(t, err)
	if got, want := asJSON(dead), string(read("dead.want.json")); got != want {
		t.Errorf("dead-hole load differs:\n%s\nwant:\n%s", got, want)
	}
}
