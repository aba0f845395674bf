// Package journal is the one durable append-log behind every file goldmine
// persists: the goldmined job WAL, the assertion corpus and the dead-hole
// corpus. It owns their framing, recovery, commit, error and replace rules
// (DESIGN.md §4.11); the owners keep only their record codecs.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Encoder appends record i of a batch to b, without a newline.
type Encoder func(b []byte, i int) ([]byte, error)

// Read calls fn for each committed record of the log at path, in order. A
// missing file has no records.
func Read(path string, fn func(rec []byte) error) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err == nil {
		_, err = replay(path, data, fn)
	}
	return err
}

// replay feeds data's committed records to fn and returns the offset just
// past the last committed line.
func replay(path string, data []byte, fn func(rec []byte) error) (int64, error) {
	off := 0
	for line := 1; ; line++ {
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			return int64(off), nil
		}
		rec := data[off : off+n]
		off += n + 1
		if len(bytes.TrimSpace(rec)) == 0 {
			continue
		}
		if err := fn(rec); err != nil {
			return 0, fmt.Errorf("%s: corrupt record at line %d: %w", path, line, err)
		}
	}
}

// Log is an open journal taking appends. Its methods are safe for concurrent
// use; Err, Dropped and Close accept a nil Log.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	size    int64 // end of the last committed line: appends start here
	torn    bool  // uncommitted bytes past size: truncate before writing
	buf     []byte
	err     error
	dropped int64
}

// Open replays the log at path through fn, creating the file if missing, and
// returns it ready for appends.
func Open(path string, fn func(rec []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err == nil {
		var size int64
		if size, err = replay(path, data, fn); err == nil {
			return &Log{f: f, size: size, torn: int64(len(data)) > size}, nil
		}
	}
	f.Close()
	return nil, err
}

// Append commits n records, encoded by enc, as one batch. On failure none of
// them is committed: they count as dropped, and the first failure is kept.
func (l *Log) Append(n int, enc Encoder) error {
	if n == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.commit(n, enc)
	if err != nil {
		l.dropped += int64(n)
		if l.err == nil {
			l.err = err
		}
	}
	return err
}

func (l *Log) commit(n int, enc Encoder) error {
	var err error
	if l.buf, err = frame(l.buf[:0], n, enc); err != nil {
		return err
	}
	if l.torn {
		if err := l.f.Truncate(l.size); err != nil {
			return err
		}
	}
	// Until the Sync returns, whatever of the batch is on disk is torn.
	l.torn = true
	if _, err := l.f.WriteAt(l.buf, l.size); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size += int64(len(l.buf))
	l.torn = false
	return nil
}

// frame appends n records from enc to b, each terminated by its newline.
func frame(b []byte, n int, enc Encoder) ([]byte, error) {
	for i := 0; i < n; i++ {
		start := len(b)
		var err error
		if b, err = enc(b, i); err != nil {
			return b, err
		}
		if bytes.IndexByte(b[start:], '\n') >= 0 {
			return b, fmt.Errorf("journal: record %d contains a newline", i)
		}
		b = append(b, '\n')
	}
	return b, nil
}

// Err returns the first append failure, or nil while every record committed.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Dropped returns how many records failed to commit.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Close closes the log file; later appends fail and count as dropped.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Replace atomically replaces path with a log of n records from enc.
func Replace(path string, n int, enc Encoder) error {
	b, err := frame(nil, n, enc)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		// The rename only replaces atomically what has reached the disk.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename durable. Some platforms refuse directory handles, so
	// the open is best-effort, but a failing sync is reported.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
