// JSONL persistence for the corpus: an internal/journal log of
// telemetry.JSONEvent records (telemetry.EncodeEvent, the serve WAL's
// encoder). A file is a header line, one corpus.entry event per entry (the
// assertion serialized in Data), and a trailer carrying the entry count;
// loaders need no trailer, which a killed daemon never writes.
package corpus

import (
	"encoding/json"
	"fmt"
	"time"

	"goldmine/internal/assertion"
	"goldmine/internal/journal"
	"goldmine/internal/telemetry"
)

// Event names used in the corpus journal.
const (
	eventHeader  = "corpus.header"
	eventEntry   = "corpus.entry"
	eventTrailer = "corpus.trailer"
)

// storeVersion guards the wire shape; bump on incompatible change.
const storeVersion = 1

// propJSON is the wire form of one assertion proposition.
type propJSON struct {
	Signal string `json:"s"`
	Bit    int    `json:"b"`
	Offset int    `json:"o"`
	Value  uint64 `json:"v"`
	Width  int    `json:"w"`
}

// entryJSON is the wire form of one Entry (the Data payload of a
// corpus.entry event). The canonical key is recomputed on load rather than
// trusted from the file.
type entryJSON struct {
	NS         string     `json:"ns"`
	Design     string     `json:"design"`
	Output     string     `json:"output"`
	Status     string     `json:"status"`
	Method     string     `json:"method,omitempty"`
	Seen       int        `json:"seen"`
	FirstRun   string     `json:"first_run,omitempty"`
	LastRun    string     `json:"last_run,omitempty"`
	Window     int        `json:"window"`
	Confidence float64    `json:"confidence"`
	Support    int        `json:"support"`
	Ant        []propJSON `json:"ant,omitempty"`
	Cons       propJSON   `json:"cons"`
}

func propWire(p assertion.Prop) propJSON {
	return propJSON{Signal: p.Signal, Bit: p.Bit, Offset: p.Offset, Value: p.Value, Width: p.Width}
}

func propFromWire(p propJSON) assertion.Prop {
	return assertion.Prop{Signal: p.Signal, Bit: p.Bit, Offset: p.Offset, Value: p.Value, Width: p.Width}
}

func entryWire(e *Entry) entryJSON {
	je := entryJSON{
		NS: e.NS, Design: e.Design, Output: e.A.Output,
		Status: e.Status, Method: e.Method,
		Seen: e.Seen, FirstRun: e.FirstRun, LastRun: e.LastRun,
		Window:     e.A.Window,
		Confidence: e.A.Confidence,
		Support:    e.A.Support,
		Cons:       propWire(e.A.Consequent),
	}
	for _, p := range e.A.Antecedent {
		je.Ant = append(je.Ant, propWire(p))
	}
	return je
}

func entryFromWire(je *entryJSON) *Entry {
	a := &assertion.Assertion{
		Output:     je.Output,
		Consequent: propFromWire(je.Cons),
		Window:     je.Window,
		Confidence: je.Confidence,
		Support:    je.Support,
	}
	for _, p := range je.Ant {
		a.Antecedent = append(a.Antecedent, propFromWire(p))
	}
	a.Normalize()
	seen := je.Seen
	if seen < 1 {
		seen = 1
	}
	return &Entry{
		NS: je.NS, Design: je.Design, Key: a.CanonicalKey(), A: a,
		Status: je.Status, Method: je.Method,
		Seen: seen, FirstRun: je.FirstRun, LastRun: je.LastRun,
	}
}

// encodeEntryEvent renders one entry as a corpus.entry journal line.
func encodeEntryEvent(buf []byte, e *Entry) ([]byte, error) {
	je := entryWire(e)
	return telemetry.EncodeEvent(buf, &telemetry.Event{
		TS:   time.Now(),
		Kind: telemetry.KindEvent,
		Name: eventEntry,
		Data: &je,
	})
}

// headerEvent renders the version header that starts every corpus journal.
func headerEvent(buf []byte) ([]byte, error) {
	return telemetry.EncodeEvent(buf, &telemetry.Event{
		TS: time.Now(), Kind: telemetry.KindEvent, Name: eventHeader,
		Attrs: []telemetry.Attr{telemetry.Int("version", storeVersion)},
	})
}

// Save writes the whole corpus to path atomically (journal.Replace), in the
// deterministic Entries order, with header and trailer lines. Re-saving an
// unchanged corpus rewrites identical entry payloads.
func Save(path string, c *Corpus) error {
	entries := c.Entries()
	err := journal.Replace(path, len(entries)+2, func(b []byte, i int) ([]byte, error) {
		switch i {
		case 0:
			return headerEvent(b)
		case len(entries) + 1:
			return telemetry.EncodeEvent(b, &telemetry.Event{
				TS: time.Now(), Kind: telemetry.KindEvent, Name: eventTrailer,
				Attrs: []telemetry.Attr{telemetry.Int("entries", int64(len(entries)))},
			})
		}
		return encodeEntryEvent(b, entries[i-1])
	})
	if err != nil {
		return fmt.Errorf("corpus: save: %w", err)
	}
	return nil
}

// decode adds one corpus.entry record to c; header, trailer and foreign
// events are skipped.
func (c *Corpus) decode(rec []byte) error {
	var je telemetry.JSONEvent
	if err := json.Unmarshal(rec, &je); err != nil {
		return err
	}
	if je.Name != eventEntry || je.Data == nil {
		return nil
	}
	var ej entryJSON
	if err := json.Unmarshal(*je.Data, &ej); err != nil {
		return err
	}
	c.add(entryFromWire(&ej))
	return nil
}

// Load reads a corpus journal. A missing file is an empty corpus (first run
// of a fresh daemon or CLI).
func Load(path string) (*Corpus, error) {
	c := New()
	if err := journal.Read(path, c.decode); err != nil {
		return nil, fmt.Errorf("corpus: load: %w", err)
	}
	return c, nil
}

// Store is the daemon's append-mode corpus log. Each ingest's new entries are
// committed as they land; a failed commit leaves the in-memory corpus
// authoritative and shows in Err/Dropped, which goldmined surfaces on
// /statsz. A nil Store (no -corpus) reports no failures.
type Store = journal.Log

// OpenStore loads path (missing = empty) into a fresh corpus and wires the
// corpus's sink so new entries persist immediately. Close the store when the
// owning server shuts down.
func OpenStore(path string) (*Corpus, *Store, error) {
	c := New()
	records := 0
	log, err := journal.Open(path, func(rec []byte) error {
		records++
		return c.decode(rec)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: open: %w", err)
	}
	if records == 0 {
		// Fresh (or fully torn) journal: start with the header line.
		if err := log.Append(1, func(b []byte, _ int) ([]byte, error) { return headerEvent(b) }); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("corpus: open: %w", err)
		}
	}
	// The corpus invokes sinks outside its own lock, so the fsync stalls only
	// other appends, never corpus readers.
	c.SetSink(func(entries []*Entry) {
		// A failure is kept by the log for Err/Dropped; the corpus keeps
		// serving from memory.
		_ = log.Append(len(entries), func(b []byte, i int) ([]byte, error) {
			return encodeEntryEvent(b, entries[i])
		})
	})
	return c, log, nil
}
