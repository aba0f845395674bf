package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// lines is an Encoder over fixed record strings.
func lines(recs ...string) (int, Encoder) {
	return len(recs), func(b []byte, i int) ([]byte, error) { return append(b, recs[i]...), nil }
}

func collect(t *testing.T, path string) []string {
	t.Helper()
	var got []string
	if err := Read(path, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestReadSkipsBlankLinesAndTheUncommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\n\n  \nb\nc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, path); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("records = %q, want a, b (c has no newline)", got)
	}
	if got := collect(t, filepath.Join(t.TempDir(), "missing")); got != nil {
		t.Fatalf("missing file = %q, want no records", got)
	}
}

func TestRejectedCommittedLineIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("ok\nbad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("unparseable")
	check := func(rec []byte) error {
		if string(rec) == "bad" {
			return bad
		}
		return nil
	}
	err := Read(path, check)
	if !errors.Is(err, bad) || !strings.Contains(err.Error(), "corrupt record at line 2") {
		t.Fatalf("Read err = %v, want corruption at line 2", err)
	}
	if _, err := Open(path, check); !errors.Is(err, bad) {
		t.Fatalf("Open err = %v, want corruption", err)
	}
	// Unterminated, the same bytes are an uncommitted tail, never parsed.
	if err := os.WriteFile(path, []byte("ok\nbad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Read(path, check); err != nil {
		t.Fatalf("torn tail: %v", err)
	}
}

func TestAppendTruncatesTheTornTailFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\nhalf-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Opening alone leaves the file as it was.
	if raw, _ := os.ReadFile(path); string(raw) != "a\nhalf-writ" {
		t.Fatalf("Open modified the file: %q", raw)
	}
	if err := l.Append(lines("b", "c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "a\nb\nc\n" {
		t.Fatalf("file = %q, want a, b, c each on its own line", raw)
	}
}

func TestFailedBatchIsDroppedAndNotCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(lines("a")); err != nil {
		t.Fatal(err)
	}
	// A record spanning lines breaks the framing: the whole batch fails.
	if err := l.Append(lines("b", "c\nd")); err == nil {
		t.Fatal("multi-line record accepted")
	}
	encErr := errors.New("encode")
	if err := l.Append(1, func(b []byte, _ int) ([]byte, error) { return b, encErr }); !errors.Is(err, encErr) {
		t.Fatalf("Append err = %v, want the encoder's", err)
	}
	if err := l.Append(lines("e")); err != nil {
		t.Fatal(err)
	}
	if l.Dropped() != 3 || l.Err() == nil || !strings.Contains(l.Err().Error(), "newline") {
		t.Fatalf("Dropped = %d, Err = %v; want 3 and the framing error first", l.Dropped(), l.Err())
	}
	if got := collect(t, path); !reflect.DeepEqual(got, []string{"a", "e"}) {
		t.Fatalf("records = %q, want a, e", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(lines("f")); err == nil || l.Dropped() != 4 {
		t.Fatalf("append after Close: err = %v, dropped = %d", err, l.Dropped())
	}
	var nilLog *Log
	if nilLog.Err() != nil || nilLog.Dropped() != 0 || nilLog.Close() != nil {
		t.Fatal("nil Log must report nothing")
	}
}

// TestConcurrentAppendsCommitWholeBatches: the job WAL appends from every
// worker at once; each batch must land as whole lines, none interleaved.
func TestConcurrentAppendsCommitWholeBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := l.Append(lines(fmt.Sprintf("w%d b%d r0", w, b), fmt.Sprintf("w%d b%d r1", w, b))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, path)
	if len(got) != 2*writers*batches {
		t.Fatalf("%d records, want %d", len(got), 2*writers*batches)
	}
	for i := 0; i < len(got); i += 2 {
		if !strings.HasSuffix(got[i], " r0") || got[i+1] != strings.TrimSuffix(got[i], "r0")+"r1" {
			t.Fatalf("batch split or interleaved at record %d: %q, %q", i, got[i], got[i+1])
		}
	}
	sort.Strings(got)
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("record %q committed twice", got[i])
		}
	}
}

func TestReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("old\nhalf"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replace(path, 2, func(b []byte, i int) ([]byte, error) { return append(b, "xy"[i]), nil }); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "x\ny\n" {
		t.Fatalf("file = %q", raw)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// A failed encode leaves the old file in place.
	if err := Replace(path, 1, func(b []byte, _ int) ([]byte, error) { return b, errors.New("no") }); err == nil {
		t.Fatal("failed encode replaced the file")
	}
	if got := collect(t, path); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("records = %q after failed Replace", got)
	}
}
