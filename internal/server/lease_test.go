package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	paretomon "repro"
	"repro/internal/server"
)

// FuzzLease holds the router lease's two outside decoders — the POST
// /lease body and the stored lease record — to their contract: neither
// panics; over a free slot the grant is 200 exactly when the id is
// non-empty and ttl_ms positive, and echoes the id and the TTL capped at
// five minutes; and a stored record that does not decode reads as free.
//
//	go test -run '^$' -fuzz FuzzLease -fuzztime 20s ./internal/server
func FuzzLease(f *testing.F) {
	f.Add([]byte(`{"id":"r1","ttl_ms":3000}`), []byte(`{bad`))
	f.Add([]byte(`{"id":"","ttl_ms":3000}`), []byte(``))
	f.Add([]byte(`{"id":"r1","ttl_ms":0}`), []byte(`null`))
	f.Add([]byte(`{"id":"r1","ttl_ms":-5}`), []byte(`{"id":5}`))
	f.Add([]byte(`{"id":"r1","ttl_ms":9223372036854775807}`), []byte(`[]`))
	f.Add([]byte(`{"ttl_ms":1e3,"id":"ré"} trailing`), []byte(`{"id":"r2","epoch":3,"expires_unix_ms":1}`))
	f.Add([]byte(`{"id":"r1","ttl_ms":"3000"}`), []byte(`{"id":"r2","epoch":1,"expires_unix_ms":9223372036854775807}`))
	f.Add([]byte(`not json`), []byte("\xff\x00"))

	com := paretomon.NewCommunity(paretomon.NewSchema("a"))
	if _, err := com.AddUser("u"); err != nil {
		f.Fatal(err)
	}
	mon, err := paretomon.NewMonitor(com, paretomon.WithAlgorithm(paretomon.AlgorithmBaseline))
	if err != nil {
		f.Fatal(err)
	}
	defer mon.Close()
	srv := server.New(mon)
	serve := func(method string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/lease", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body, stored []byte) {
		if err := mon.PutMeta(server.LeaseMetaKey, stored); err != nil {
			t.Fatal(err)
		}
		var probe struct {
			ID      string `json:"id"`
			Expires int64  `json:"expires_unix_ms"`
		}
		corrupt := json.Unmarshal(stored, &probe) != nil
		if got := serve(http.MethodGet, nil); corrupt && got.Code != http.StatusNotFound {
			t.Fatalf("GET /lease over the corrupt record %q: %d %s, want 404", stored, got.Code, got.Body)
		}

		var req struct {
			ID        string `json:"id"`
			TTLMillis int64  `json:"ttl_ms"`
		}
		valid := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.ID != "" && req.TTLMillis > 0
		got := serve(http.MethodPost, body)
		switch got.Code {
		case http.StatusOK:
			var grant struct {
				ID        string `json:"id"`
				TTLMillis int64  `json:"ttl_ms"`
			}
			if err := json.Unmarshal(got.Body.Bytes(), &grant); err != nil || !valid {
				t.Fatalf("POST /lease %q granted %s (%v) to an invalid request", body, got.Body, err)
			}
			if grant.ID != req.ID || grant.TTLMillis != min(req.TTLMillis, (5*time.Minute).Milliseconds()) {
				t.Fatalf("POST /lease %q granted %+v", body, grant)
			}
		case http.StatusBadRequest:
			if valid {
				t.Fatalf("POST /lease %q refused a valid request: %s", body, got.Body)
			}
		case http.StatusConflict:
			if corrupt {
				t.Fatalf("POST /lease %q: 409 over a corrupt record %q: %s", body, stored, got.Body)
			}
		default:
			t.Fatalf("POST /lease %q: %d %s", body, got.Code, got.Body)
		}
		if corrupt && valid && got.Code != http.StatusOK {
			t.Fatalf("POST /lease %q over a corrupt record: %d, want 200", body, got.Code)
		}
	})
}
