package obs

import (
	"strings"
	"testing"
)

func TestWritePromRendersTaggedStructs(t *testing.T) {
	type inner struct {
		Count int64   `json:"count"`
		Rate  float64 `json:"hit_rate"`
	}
	type snap struct {
		Requests int64            `json:"requests"`
		Healthy  bool             `json:"healthy"`
		Skipped  string           `json:"skipped_string"`
		Hidden   int64            `json:"-"`
		Cache    inner            `json:"cache"`
		PerNode  map[string]int64 `json:"per_node,omitempty"`
		Nested   map[string]inner `json:"nested,omitempty"`
		Ptr      *inner           `json:"ptr,omitempty"`
	}
	v := snap{
		Requests: 7,
		Healthy:  true,
		Skipped:  "not a sample",
		Hidden:   99,
		Cache:    inner{Count: 3, Rate: 0.5},
		PerNode:  map[string]int64{"b": 2, "a": 1},
		Nested:   map[string]inner{"n1": {Count: 4}},
	}
	var b strings.Builder
	if err := WriteProm(&b, "pdce", v); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE pdce_requests gauge\npdce_requests 7\n",
		"pdce_healthy 1\n",
		"pdce_cache_count 3\n",
		"pdce_cache_hit_rate 0.5\n",
		"pdce_per_node{key=\"a\"} 1\n",
		"pdce_per_node{key=\"b\"} 2\n",
		"pdce_nested_count{key=\"n1\"} 4\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n---\n%s", w, out)
		}
	}
	if strings.Contains(out, "skipped") || strings.Contains(out, "not a sample") {
		t.Error("string field rendered")
	}
	if strings.Contains(out, "99") {
		t.Error("json:\"-\" field rendered")
	}
	if strings.Contains(out, "ptr") {
		t.Error("nil pointer rendered")
	}
	// Map keys within one series are label-sorted.
	if strings.Index(out, `key="a"`) > strings.Index(out, `key="b"`) {
		t.Error("labels not sorted")
	}
}

func TestWritePromDeterministic(t *testing.T) {
	type snap struct {
		B int64            `json:"b"`
		A int64            `json:"a"`
		M map[string]int64 `json:"m"`
	}
	v := snap{A: 1, B: 2, M: map[string]int64{"z": 1, "y": 2, "x": 3}}
	var first string
	for i := 0; i < 5; i++ {
		var b strings.Builder
		if err := WriteProm(&b, "p", v); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("run %d diverged:\n%s\n---\n%s", i, b.String(), first)
		}
	}
	// Series names in sorted order: p_a before p_b before p_m.
	if strings.Index(first, "p_a ") > strings.Index(first, "p_b ") {
		t.Error("series not name-sorted")
	}
}

func TestWritePromSanitizesNames(t *testing.T) {
	type snap struct {
		Odd int64 `json:"odd.name-here"`
	}
	var b strings.Builder
	if err := WriteProm(&b, "p", snap{Odd: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "p_odd_name_here 1") {
		t.Fatalf("unsanitized name:\n%s", b.String())
	}
}

// TestWritePromRealSnapshot pins the reflection walk against the real
// /metrics payload shape: every top-level section must produce at
// least one gauge, proving a snapshot refactor cannot silently empty
// the Prometheus surface.
func TestWritePromRealSnapshot(t *testing.T) {
	stats := &ServerStats{}
	stats.Requests.Add(1)
	stats.CacheHits.Add(1)
	ts := NewTraceStore(8, 1.0, 42)
	ts.StartSpan("server.optimize", "pdced", SpanContext{}).End()
	payload := struct {
		Server ServerSnapshot     `json:"server"`
		Traces TraceStoreSnapshot `json:"traces"`
	}{stats.Snapshot(), ts.Snapshot()}
	var b strings.Builder
	if err := WriteProm(&b, "pdce", payload); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"pdce_server_requests 1",
		"pdce_server_cache_hits 1",
		"pdce_traces_kept 1",
		`pdce_traces_stages_count{key="server.optimize"} 1`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("real snapshot missing %q\n---\n%s", w, out)
		}
	}
}
