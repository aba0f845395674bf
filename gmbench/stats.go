package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// quantile returns the q-quantile of ds by linear interpolation between the
// closest ranks (0 for an empty slice).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// counterRecord is what one seed's first run leaves behind for the
// repeat-exactly self-check of later runs of the same seed.
type counterRecord struct {
	Build    string           `json:"build"`
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Pass     map[string]int64 `json:"pass"`
}

// checkCounters verifies that the deterministic counters of every pass are
// identical — across the passes of this run and against the record an
// earlier run of the same build, workload and seed left in dir — and records
// the union of the counters seen. Only counters present on both sides are
// compared: an untraced run lacks the registry counters of a traced one.
func checkCounters(dir, build, workload string, seed int64, passes []map[string]int64) ([]string, error) {
	if len(passes) == 0 {
		return nil, nil
	}
	var mism []string
	ref := map[string]int64{}
	for k, v := range passes[0] {
		ref[k] = v
	}
	compare := func(what string, got map[string]int64) {
		for k, v := range got {
			if want, ok := ref[k]; ok && want != v {
				mism = append(mism, fmt.Sprintf("%s: %s = %d, expected %d", what, k, v, want))
			} else if !ok {
				ref[k] = v
			}
		}
	}
	for i, p := range passes[1:] {
		compare(fmt.Sprintf("pass %d", i+2), p)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", build, workload, seed))
	var rec counterRecord
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("counter record %s: %w", path, err)
		}
		before := ref
		ref = rec.Pass
		compare("earlier run of this seed", before)
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	rec = counterRecord{Build: build, Workload: workload, Seed: seed, Pass: ref}
	data, err = json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return mism, os.WriteFile(path, data, 0o644)
}

// buildID identifies the running binary — program and benchmark code
// together — by a hash of its file, so that counter records never compare
// two different builds.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
