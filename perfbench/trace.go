package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Spans of one query share Trace; Parent links a span to the one that
// caused it (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Trace   string `json:"trace,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	next  int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent's span is recorded.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent int, name, trace string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Trace: trace,
		StartUS: start.Sub(t.base).Microseconds(), EndUS: end.Sub(t.base).Microseconds(),
	})
	return id
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
