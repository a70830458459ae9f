package darknight

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"darknight/internal/obs"
)

// TestServerObservabilityEndToEnd: the facade knob stands up the whole
// stack — traced requests, a live /metrics listener whose scrape parses,
// and a flight recorder — and Close tears the listener down.
func TestServerObservabilityEndToEnd(t *testing.T) {
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config:  Config{VirtualBatch: 2, Seed: 1, EnclaveBytes: -1},
		Workers: 1,
		MaxWait: time.Millisecond,
		Observability: ObservabilityConfig{
			MetricsAddr: "127.0.0.1:0",
			TraceSample: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Observability() == nil {
		t.Fatal("observability not attached")
	}
	addr := srv.MetricsAddr()
	if addr == "" {
		t.Fatal("metrics listener not bound")
	}

	data := SyntheticDataset(8, 4, 1, 8, 8, 2)
	for _, ex := range data {
		if _, err := srv.Infer(context.Background(), ex.Image); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics scrape does not parse: %v", err)
	}
	if parsed["darknight_requests_completed_total"] != float64(len(data)) {
		t.Fatalf("scrape shows %v completed, want %d", parsed["darknight_requests_completed_total"], len(data))
	}

	traces := srv.RecentTraces()
	if len(traces) == 0 {
		t.Fatal("no traces retained at 100% sampling")
	}
	if traces[len(traces)-1].Find("offload") == nil && traces[len(traces)-1].Find("admit") == nil {
		t.Fatalf("trace missing expected spans:\n%s", traces[len(traces)-1].RenderString())
	}
	if events := srv.FlightRecorderDump(); len(events) == 0 {
		t.Fatal("flight recorder empty after traced serving")
	}
	var b strings.Builder
	if err := srv.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics listener still serving after Close")
	}
}

// TestSystemTraceAndMetrics: Config.Observability wires the training
// path — TrainBatch yields a span tree via System.Trace and the training
// series export.
func TestSystemTraceAndMetrics(t *testing.T) {
	model := TinyCNN(1, 8, 8, 4, 1)
	sys, err := NewSystem(model, Config{
		VirtualBatch:  2,
		Seed:          1,
		Observability: ObservabilityConfig{TraceSample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Trace() != nil {
		t.Fatal("trace before any work")
	}
	data := SyntheticDataset(4, 4, 1, 8, 8, 2)
	if _, err := sys.TrainBatch(data); err != nil {
		t.Fatal(err)
	}
	tr := sys.Trace()
	if tr == nil {
		t.Fatal("no trace after traced TrainBatch")
	}
	if tr.Find("offload") == nil {
		t.Fatalf("training trace has no offload spans:\n%s", tr.RenderString())
	}
	var b strings.Builder
	if err := sys.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("training metrics do not parse: %v", err)
	}
	if parsed["darknight_train_offloads_total"] <= 0 {
		t.Fatal("train offloads not exported")
	}
}

// TestSystemPredictTrace: a traced Predict files a "predict" root carrying
// the batch's offload trees.
func TestSystemPredictTrace(t *testing.T) {
	sys, err := NewSystem(TinyCNN(1, 8, 8, 4, 1), Config{
		VirtualBatch:  2,
		Seed:          1,
		Observability: ObservabilityConfig{TraceSample: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	data := SyntheticDataset(2, 4, 1, 8, 8, 2)
	if _, err := sys.Predict([][]float64{data[0].Image, data[1].Image}); err != nil {
		t.Fatal(err)
	}
	tr := sys.Trace()
	if tr == nil || tr.Name() != "predict" {
		t.Fatalf("last trace after a traced Predict = %v, want a \"predict\" root", tr)
	}
	if tr.Find("offload") == nil {
		t.Fatalf("predict trace has no offload spans:\n%s", tr.RenderString())
	}
	if tr.Attr("error") != "" {
		t.Fatalf("successful predict annotated with error %q", tr.Attr("error"))
	}
	if _, err := sys.Predict([][]float64{data[0].Image}); err == nil {
		t.Fatal("wrong predict batch size accepted")
	}
	if tr := sys.Trace(); tr == nil || tr.Name() != "predict" || tr.Attr("error") == "" {
		t.Fatalf("last trace after a failed Predict = %v, want a \"predict\" root with an error attribute", tr)
	}
}

// TestObservabilityConfigDisabledByDefault: the zero config attaches
// nothing — no bundle, no listener, nil-safe accessors.
func TestObservabilityConfigDisabledByDefault(t *testing.T) {
	srv, err := NewServer(func() *Model { return TinyCNN(1, 8, 8, 4, 1) }, ServerConfig{
		Config:  Config{VirtualBatch: 2, Seed: 1, EnclaveBytes: -1},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Observability() != nil || srv.MetricsAddr() != "" {
		t.Fatal("zero config attached observability")
	}
	if srv.RecentTraces() != nil || srv.FlightRecorderDump() != nil {
		t.Fatal("zero config retained traces/events")
	}
	if err := srv.WriteMetrics(io.Discard); err == nil {
		t.Fatal("WriteMetrics without a registry should error")
	}
}
