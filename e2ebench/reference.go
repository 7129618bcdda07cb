package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// inputSeeds is how many input seeds paper-tables and ils-search have
// references for. A benchmark seed maps onto them (inputSeed), so any
// --seed runs checked inputs and seed 1 is the EXPERIMENTS.md sweep.
// daemon-jobs draws its requests from a fixed catalogue instead, so its
// seed is not folded.
const inputSeeds = 16

// inputSeed folds a benchmark seed onto 1..inputSeeds.
func inputSeed(seed int64) int64 {
	m := (seed - 1) % inputSeeds
	if m < 0 {
		m += inputSeeds
	}
	return m + 1
}

// size names the input scale: the benchmark's or the toy self-check's.
func size(toy bool) string {
	if toy {
		return "toy"
	}
	return "full"
}

// reference maps "<workload>/<size>/<key>" to the outputs the program
// produced when the benchmark was defined: the cells of one input seed
// (paper-tables), the per-width outcomes of one input seed
// (ils-search), or the outcome of one catalogue request (daemon-jobs).
// `e2ebench -record` rewrites it.
type reference map[string]json.RawMessage

func loadReference(path string) (reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	return r, nil
}

// get decodes the entry for key into v; a missing entry is an error,
// so an output nothing was recorded for never passes unchecked.
func (r reference) get(key string, v any) error {
	raw, ok := r[key]
	if !ok {
		return fmt.Errorf("no reference for %s", key)
	}
	return json.Unmarshal(raw, v)
}

func (r reference) put(key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	r[key] = b
	return nil
}

// write stores the reference one sorted entry per line, so a re-record
// shows up in a diff entry by entry.
func (r reference) write(path string) error {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k) // a string always marshals
		fmt.Fprintf(&b, "%s: %s", kb, r[k])
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
