package simserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRunRequest POSTs arbitrary bodies to /v1/key, which decodes,
// validates and derives a run key but never simulates. Every body must be
// answered with 200 and a 64-hex key, or with a 4xx and a JSON error body;
// nothing may panic. The seed corpus (testdata/fuzz/FuzzRunRequest) holds
// valid, malformed, oversized and trailing-data bodies.
func FuzzRunRequest(f *testing.F) {
	s, err := New(tinyScale())
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/key", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
			var rr RunResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil || len(rr.Key) != 64 {
				t.Fatalf("200 without a run key: %q", rec.Body.Bytes())
			}
		case code >= 400 && code < 500:
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without a JSON error body: %q", code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
	})
}
