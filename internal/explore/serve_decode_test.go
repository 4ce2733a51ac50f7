package explore

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// decodeRunRequestJSON is the reference decoder decodeRunRequest must
// match: encoding/json's Decoder with DisallowUnknownFields, then a check
// that no token follows the request value.
func decodeRunRequestJSON(body io.Reader) (runRequest, error) {
	req := runRequest{Phys: "projected", Seed: 1}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if errors.Is(err, io.EOF) {
			return req, nil
		}
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("trailing data")
	}
	return req, nil
}

// checkRunRequestBody decodes body both ways under the server's size cap
// and fails unless both reject it or both yield the same request.
func checkRunRequestBody(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeRunRequest(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRunBody), int64(len(body)))
	want, werr := decodeRunRequestJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRunBody))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("body %q: decodeRunRequest err = %v, encoding/json err = %v", body, err, werr)
	case err == nil && got != want:
		t.Fatalf("body %q: decodeRunRequest = %+v, encoding/json = %+v", body, got, want)
	}
}

// runRequestBodies are the fuzz seeds: every request body the serve tests
// send, and the edge cases of the request schema.
var runRequestBodies = []string{
	// Bodies of the serve tests.
	``,
	`{}`,
	`{"seed": 7}`,
	`{"seed": 3, "parallel": 2}`,
	`{"seed": 7, "engine": "analytic"}`,
	`{"seed": 9, "async": true}`,
	`{"seed": 4101, "async": true}`,
	`{"engine":"des","seed":2}`,
	`{"engine": "abacus"}`,
	`{"phys": "fantasy"}`,
	`{"seed": "notanumber"}`,
	`{"format": "csv"}`,
	`{"seed": 1}{"seed": 2}`,
	`{"seed": 1} trailing garbage`,
	`{"seed": 1} 42`,
	`{"circuit":"qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n"}`,
	`{"async":true,"circuit":"qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1\n","seed":4102}`,
	`{"circuit":"qubits 2\ncnot 0 7\n"}`,
	`{"circuit":"qubits 2\nh 0\nh 1\nmeasure 0\nmeasure 1\n","phys":"current","engine":"des"}`,
	// Key matching: case folding as bytes.EqualFold, escapes in keys.
	`{"SEED": 5, "Phys": "current", "ENGINE": "des", "Async": true, "CIRCUIT": "x", "PaRaLLeL": 3}`,
	`{"ſeed": 5}`,
	`{"\u017feed": 5}`,
	`{"\u0073eed": 5}`,
	`{"seed\u0000": 5}`,
	"{\"se\xffed\": 5}",
	// Duplicates and null.
	`{"seed": 1, "seed": 2}`,
	`{"phys": "current", "phys": null}`,
	`{"seed": null, "parallel": null, "async": null, "engine": null, "phys": null, "circuit": null}`,
	`{"unknown": null}`,
	`null`,
	` null `,
	`nul`,
	`nullx`,
	`null null`,
	// Integers.
	`{"seed": 9223372036854775807}`,
	`{"seed": -9223372036854775808}`,
	`{"seed": 9223372036854775808}`,
	`{"seed": -9223372036854775809}`,
	`{"parallel": 2147483648}`,
	`{"parallel": -2147483649}`,
	`{"seed": -0}`,
	`{"seed": 0}`,
	`{"seed": 01}`,
	`{"seed": -}`,
	`{"seed": 1.0}`,
	`{"seed": 1.}`,
	`{"seed": 1e3}`,
	`{"seed": 1E+3}`,
	`{"seed": +1}`,
	`{"seed": 1-}`,
	`{"seed": true}`,
	// Booleans.
	`{"async": false}`,
	`{"async": "true"}`,
	`{"async": 1}`,
	`{"async": truex}`,
	`{"async": tru}`,
	// Strings: escapes, surrogates, invalid UTF-8, control bytes.
	`{"circuit": "a\"b\\c\/d\be\ff\ng\rh\ti"}`,
	`{"circuit": "\ud83d\ude00"}`,
	`{"circuit": "\ud83d"}`,
	`{"circuit": "\ude00\ud83d"}`,
	`{"circuit": "\ud83dx"}`,
	`{"circuit": "\ud83d\u0041"}`,
	`{"circuit": "\ud83d\ud83d\ude00"}`,
	`{"circuit": "\u00e9\u0000\uFFFD"}`,
	`{"circuit": "\u12"}`,
	`{"circuit": "\u12G4"}`,
	`{"circuit": "\'"}`,
	`{"circuit": "\x"}`,
	`{"circuit": "\\\\"}`,
	`{"circuit": "\\\""}`,
	"{\"circuit\": \"\xff\xfe\"}",
	"{\"circuit\": \"\xed\xa0\x80\"}",
	"{\"circuit\": \"\xe2\x82\"}",
	"{\"circuit\": \"é€😀\x7f\"}",
	"{\"circuit\": \"a\x01b\"}",
	"{\"circuit\": \"a\tb\"}",
	"{\"circuit\": \"a\\u0041\x1fb\"}",
	`{"circuit": "unterminated`,
	`{"circuit": "unterminated\"}`,
	// Whitespace and bodies that are not one object.
	"   ",
	"\n\t\r {\n\"seed\"\t:\r2\n}\n ",
	" \f ",
	"\xef\xbb\xbf{}",
	`[]`,
	`"seed"`,
	`1`,
	`true`,
	`{}x`,
	`{} {}`,
	`{,}`,
	`{"seed": 1,}`,
	`{"seed" 1}`,
	`{seed: 1}`,
	`{"seed": 1 "phys": "current"}`,
	`{"seed": {}}`,
	`{"phys": []}`,
	`{"circuit": {"qubits": 2}}`,
	`{"seed": 1`,
	`{`,
}

// TestDecodeRunRequest pins a few decodings the fuzz seeds would let pass
// if both decoders rejected them alike.
func TestDecodeRunRequest(t *testing.T) {
	def := runRequest{Phys: "projected", Seed: 1}
	for _, c := range []struct {
		body string
		want runRequest
	}{
		{``, def},
		{" null\n", def},
		{`{"ſeed": 5, "PARALLEL": 2}`, runRequest{Phys: "projected", Seed: 5, Parallel: 2}},
		{`{"phys": "current", "phys": null, "seed": 2, "seed": -0}`, runRequest{Phys: "current"}},
		{`{"circuit": "a\nb\ud83d\ude00\ud83d", "async": true, "engine": "des"}`,
			runRequest{Phys: "projected", Seed: 1, Circuit: "a\nb😀\uFFFD", Async: true, Engine: "des"}},
		{"{\"circuit\": \"\xff\"}", runRequest{Phys: "projected", Seed: 1, Circuit: "\uFFFD"}},
	} {
		got, err := decodeRunRequest(strings.NewReader(c.body), -1)
		if err != nil || got != c.want {
			t.Errorf("body %q: got %+v, %v; want %+v", c.body, got, err, c.want)
		}
		checkRunRequestBody(t, []byte(c.body))
	}
}

// FuzzRunRequestBody holds decodeRunRequest to encoding/json: for any
// body, both reject it or both yield the same request.
func FuzzRunRequestBody(f *testing.F) {
	for _, b := range runRequestBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(checkRunRequestBody)
}

// TestRunRequestBodyLimit: a body of exactly the cap decodes, and one byte
// more is rejected, as under encoding/json.
func TestRunRequestBodyLimit(t *testing.T) {
	prefix, suffix := `{"circuit": "`, `"}`
	fill := maxRunBody - len(prefix) - len(suffix)
	for _, body := range []string{
		prefix + strings.Repeat("h", fill) + suffix,
		prefix + strings.Repeat("h", fill+1) + suffix,
		prefix + strings.Repeat("h", fill) + suffix + " ",
		prefix + strings.Repeat(`\n`, fill/2) + suffix,
	} {
		checkRunRequestBody(t, []byte(body))
	}
	if _, err := decodeRunRequest(strings.NewReader(prefix+strings.Repeat("h", fill+1)+suffix), -1); err != nil {
		t.Fatalf("an uncapped reader: %v", err)
	}
	body := prefix + strings.Repeat("h", fill+1) + suffix
	if _, err := decodeRunRequest(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), maxRunBody), int64(len(body))); err == nil {
		t.Fatal("a body one byte over the cap decoded")
	}
}

// TestRunRequestPresize: a body that declares the full cap but sends two
// bytes allocates a small buffer, not the declared length, while a body
// larger than the pre-size still decodes whole.
func TestRunRequestPresize(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeRunRequest(strings.NewReader(`{}`), maxRunBody); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= maxRunBody/4 {
		t.Errorf("a two-byte body declaring %d bytes allocated %d bytes", maxRunBody, n)
	}
	text := strings.Repeat("h 0\n", maxRunPresize/3)
	body := `{"circuit": "` + strings.ReplaceAll(text, "\n", `\n`) + `"}`
	req, err := decodeRunRequest(strings.NewReader(body), int64(len(body)))
	if err != nil || req.Circuit != text {
		t.Fatalf("a %d-byte body over the pre-size: err %v, circuit of %d bytes", len(body), err, len(req.Circuit))
	}
}
