package pdce_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pdce"
	"pdce/internal/obs"
)

// reportSchema is the golden schema for -metrics-json payloads,
// shared with the CI telemetry smoke.
const reportSchema = "testdata/report.schema.json"

// checkSchema validates a JSON document against a golden schema file.
//
// The schema dialect is deliberately tiny (this repo takes no external
// dependencies): an object with a "required" and an "optional" map from
// key to either a type name ("string", "number", "bool") or a nested
// schema; a schema holding "elements" applies that spec (a schema or a
// type name) to every element of an array; a schema holding "values"
// applies its spec to every value of a free-form object (a homogeneous
// map like bench metrics). Required keys must be present with the right
// type; optional keys are type-checked when present; unknown keys are
// rejected, so the golden file must be updated in the same change that
// extends the payload — that is the point.
func checkSchema(t *testing.T, label string, data []byte, schemaPath string) {
	t.Helper()
	raw, err := os.ReadFile(schemaPath)
	if err != nil {
		t.Fatalf("%s: schema: %v", label, err)
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatalf("%s: schema: %v", label, err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: payload: %v", label, err)
	}
	if err := validate(doc, schema, "$"); err != nil {
		t.Errorf("%s: %v\npayload: %s", label, err, data)
	}
}

func validate(doc any, schema map[string]any, path string) error {
	if elems, ok := schema["elements"]; ok {
		arr, ok := doc.([]any)
		if !ok {
			return fmt.Errorf("%s: want array, got %T", path, doc)
		}
		for i, el := range arr {
			if err := validateValue(el, elems, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if vals, ok := schema["values"]; ok {
		obj, ok := doc.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: want object, got %T", path, doc)
		}
		for key, v := range obj {
			if err := validateValue(v, vals, path+"."+key); err != nil {
				return err
			}
		}
		return nil
	}

	obj, ok := doc.(map[string]any)
	if !ok {
		return fmt.Errorf("%s: want object, got %T", path, doc)
	}
	required, _ := schema["required"].(map[string]any)
	optional, _ := schema["optional"].(map[string]any)
	for key, spec := range required {
		v, present := obj[key]
		if !present {
			return fmt.Errorf("%s: missing required key %q", path, key)
		}
		if err := validateValue(v, spec, path+"."+key); err != nil {
			return err
		}
	}
	for key, v := range obj {
		if _, ok := required[key]; ok {
			continue
		}
		spec, ok := optional[key]
		if !ok {
			return fmt.Errorf("%s: unexpected key %q (update the golden schema)", path, key)
		}
		if err := validateValue(v, spec, path+"."+key); err != nil {
			return err
		}
	}
	return nil
}

func validateValue(v, spec any, path string) error {
	switch s := spec.(type) {
	case string:
		switch s {
		case "string":
			if _, ok := v.(string); !ok {
				return fmt.Errorf("%s: want string, got %T", path, v)
			}
		case "number":
			if _, ok := v.(float64); !ok {
				return fmt.Errorf("%s: want number, got %T", path, v)
			}
		case "bool":
			if _, ok := v.(bool); !ok {
				return fmt.Errorf("%s: want bool, got %T", path, v)
			}
		case "object":
			if _, ok := v.(map[string]any); !ok {
				return fmt.Errorf("%s: want object, got %T", path, v)
			}
		default:
			return fmt.Errorf("%s: bad schema: unknown type %q", path, s)
		}
		return nil
	case map[string]any:
		return validate(v, s, path)
	default:
		return fmt.Errorf("%s: bad schema: %T", path, spec)
	}
}

// TestQueueStatsSchema pins the golden schema's queue_stats block to
// the real obs.QueueSnapshot wire shape: every snapshot field must be
// declared (unknown keys are rejected) and every declared field must
// be emitted (all are required) — the block and the type can only
// drift together, in the same change.
func TestQueueStatsSchema(t *testing.T) {
	raw, err := os.ReadFile(reportSchema)
	if err != nil {
		t.Fatal(err)
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatal(err)
	}
	spec, ok := schema["optional"].(map[string]any)["queue_stats"].(map[string]any)
	if !ok {
		t.Fatal("golden schema has no queue_stats block")
	}

	snap := obs.QueueSnapshot{Depth: 1, WALRecords: 2, WALBytes: 64, Submits: 1, Completions: 1}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if err := validate(doc, spec, "$.queue_stats"); err != nil {
		t.Errorf("QueueSnapshot does not match the golden queue_stats block: %v\npayload: %s", err, data)
	}
}

// TestStoreStatsSchema pins the golden schema's store_stats block to
// the real obs.StoreSnapshot wire shape — the "store" section of
// pdced's /metrics — the same way TestQueueStatsSchema pins the queue:
// every snapshot field must be declared, every declared field must be
// emitted, so the block and the type can only drift together.
func TestStoreStatsSchema(t *testing.T) {
	raw, err := os.ReadFile(reportSchema)
	if err != nil {
		t.Fatal(err)
	}
	var schema map[string]any
	if err := json.Unmarshal(raw, &schema); err != nil {
		t.Fatal(err)
	}
	spec, ok := schema["optional"].(map[string]any)["store_stats"].(map[string]any)
	if !ok {
		t.Fatal("golden schema has no store_stats block")
	}

	var stats obs.StoreStats
	stats.L2Hits.Add(1)
	stats.L2Misses.Add(1)
	stats.LeaseWins.Add(1)
	stats.RecordGetLatency(time.Millisecond)
	snap := stats.Snapshot()
	snap.Blobs, snap.Bytes = 3, 4096
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if err := validate(doc, spec, "$.store_stats"); err != nil {
		t.Errorf("StoreSnapshot does not match the golden store_stats block: %v\npayload: %s", err, data)
	}
}

// TestTelemetrySmoke is the CI telemetry smoke (make smoke-telemetry):
// every corpus program is optimized in both modes with all collectors
// on, and each resulting report must validate against the golden
// schema.
func TestTelemetrySmoke(t *testing.T) {
	files, err := filepath.Glob("testdata/corpus/*.while")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, f := range files {
		for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
			t.Run(fmt.Sprintf("%s-%s", filepath.Base(f), mode), func(t *testing.T) {
				p := mustParseFile(t, f)
				_, st, err := p.Optimize(pdce.Options{Mode: mode, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if st.Telemetry == nil {
					t.Fatal("no telemetry")
				}
				rep := pdce.MakeReport(p.Name(), mode, st, 0, nil)
				data, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				checkSchema(t, f, data, reportSchema)
			})
		}
	}
}
