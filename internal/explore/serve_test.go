package explore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/phys"
)

func serveTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(explore.NewServer())
	t.Cleanup(srv.Close)
	return srv
}

func TestServeListSweeps(t *testing.T) {
	srv := serveTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sweeps: %s", resp.Status)
	}
	var doc struct {
		SchemaVersion int      `json:"schema_version"`
		Engines       []string `json:"engines"`
		Sweeps        []struct {
			Name   string `json:"name"`
			Title  string `json:"title"`
			Points int    `json:"points"`
			Axes   []struct {
				Name   string `json:"name"`
				Kind   string `json:"kind"`
				Values []any  `json:"values"`
			} `json:"axes"`
		} `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != explore.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", doc.SchemaVersion, explore.SchemaVersion)
	}
	if len(doc.Engines) != 2 {
		t.Errorf("engines = %v", doc.Engines)
	}
	names := map[string]bool{}
	for _, s := range doc.Sweeps {
		names[s.Name] = true
		if s.Points < 1 || s.Title == "" || len(s.Axes) == 0 {
			t.Errorf("degenerate listing entry: %+v", s)
		}
	}
	for _, want := range []string{"table4", "table5", "xval", "montecarlo"} {
		if !names[want] {
			t.Errorf("listing is missing %q (have %v)", want, names)
		}
	}
}

func TestServeRunSweep(t *testing.T) {
	srv := serveTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/sweeps/table2:run", "application/json",
		strings.NewReader(`{"seed": 7, "engine": "analytic"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST table2:run: %s", resp.Status)
	}
	var doc struct {
		SchemaVersion int    `json:"schema_version"`
		Experiment    string `json:"experiment"`
		Seed          int64  `json:"seed"`
		Engine        string `json:"engine"`
		Points        []struct {
			Params  map[string]any     `json:"params"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "table2" || doc.Seed != 7 || doc.Engine != "analytic" {
		t.Errorf("report header: %+v", doc)
	}
	if doc.SchemaVersion != explore.SchemaVersion {
		t.Errorf("schema_version = %d", doc.SchemaVersion)
	}
	if len(doc.Points) != 4 { // 2 codes x 2 levels
		t.Fatalf("got %d points, want 4", len(doc.Points))
	}
	if doc.Points[0].Metrics["area_mm2"] <= 0 {
		t.Error("unpopulated point metrics")
	}
}

// TestServeMatchesCLIEmitter: the endpoint must serve byte-identical
// documents to the JSON emitter, so HTTP clients and file consumers share
// one contract.
func TestServeMatchesCLIEmitter(t *testing.T) {
	srv := serveTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/sweeps/fig6b:run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	exp, err := explore.Lookup("fig6b")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := explore.Run(context.Background(), exp, explore.Options{Phys: phys.Projected(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	rep := &explore.Report{Experiment: exp, Phys: "projected", Seed: 1, Engine: "analytic", Points: pts}
	if err := rep.JSON(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("served document differs from CLI emitter:\n--- served ---\n%s\n--- emitter ---\n%s", got.String(), want.String())
	}
}

// TestServeCaseInsensitiveSweepName: the CLI lower-cases sweep names, so
// the HTTP endpoint must accept the same spellings — parity lives in
// Lookup itself.
func TestServeCaseInsensitiveSweepName(t *testing.T) {
	srv := serveTestServer(t)
	for _, name := range []string{"Table2", "TABLE2"} {
		resp, err := http.Post(srv.URL+"/v1/sweeps/"+name+":run", "application/json",
			strings.NewReader(`{"seed": 7}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s:run: %s, want 200", name, resp.Status)
		}
	}
}

// TestServeRejectsTrailingBody: trailing tokens after the JSON request
// object are a malformed request, not ignorable padding.
func TestServeRejectsTrailingBody(t *testing.T) {
	srv := serveTestServer(t)
	for _, body := range []string{
		`{"seed": 1}{"seed": 2}`,
		`{"seed": 1} trailing garbage`,
		`{"seed": 1} 42`,
	} {
		resp, err := http.Post(srv.URL+"/v1/sweeps/table2:run", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]string
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%v)", body, resp.StatusCode, doc)
		}
	}
}

func TestServeErrors(t *testing.T) {
	srv := serveTestServer(t)
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"unknown sweep", "/v1/sweeps/table99:run", "", http.StatusNotFound},
		{"missing :run", "/v1/sweeps/table4", "", http.StatusNotFound},
		{"bad engine", "/v1/sweeps/table2:run", `{"engine": "abacus"}`, http.StatusBadRequest},
		{"bad phys", "/v1/sweeps/table2:run", `{"phys": "fantasy"}`, http.StatusBadRequest},
		{"bad body", "/v1/sweeps/table2:run", `{"seed": "notanumber"}`, http.StatusBadRequest},
		{"unknown field", "/v1/sweeps/table2:run", `{"format": "csv"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]string
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%v)", c.name, resp.StatusCode, c.status, doc)
		}
		if doc["error"] == "" {
			t.Errorf("%s: error responses must carry an error message", c.name)
		}
	}
	// Wrong method on the run endpoint.
	resp, err := http.Get(srv.URL + "/v1/sweeps/table2:run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on run endpoint: status %d, want 405", resp.StatusCode)
	}
}
