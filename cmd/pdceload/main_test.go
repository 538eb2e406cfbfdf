package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pdce/internal/server"
)

// Smoke: a short closed-loop run against two in-process replicas
// completes without errors and reports per-replica traffic.
func TestLoadSmoke(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	var out strings.Builder
	err := run(context.Background(), loadConfig{
		replicas: urls,
		conc:     4,
		duration: 300 * time.Millisecond,
		programs: 8,
		stmts:    48,
		seed:     1,
	}, &out)
	if err != nil {
		t.Fatalf("load run failed: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "0 failed") {
		t.Fatalf("report does not show a clean run:\n%s", report)
	}
	for _, u := range urls {
		if !strings.Contains(report, "replica "+u) {
			t.Fatalf("report is missing replica %s:\n%s", u, report)
		}
	}
	if !strings.Contains(report, "affinity hit rate 1.000") {
		t.Fatalf("healthy ring should route every request to its home:\n%s", report)
	}
}

// One program has one home on the ring, so the other replica never
// gets a request. The report still gives it a line, under the name the
// pool uses (trailing slash trimmed), with zero counters.
func TestLoadReportsIdleReplica(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	var out strings.Builder
	err := run(context.Background(), loadConfig{
		replicas: []string{urls[0], urls[1] + "/"},
		conc:     1,
		duration: 100 * time.Millisecond,
		programs: 1,
		stmts:    16,
		seed:     1,
	}, &out)
	if err != nil {
		t.Fatalf("load run failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, u := range urls {
		if !strings.Contains(report, "replica "+u+": ") {
			t.Fatalf("report is missing replica %s:\n%s", u, report)
		}
	}
	if !strings.Contains(report, ": 0 attempts, 0 failures, 0 ejections, 0 readmissions\n") {
		t.Fatalf("report has no line for the idle replica:\n%s", report)
	}
}
