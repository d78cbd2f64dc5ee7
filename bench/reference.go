package bench

import (
	"bytes"
	"io"
	"net/http"
	"strings"
)

// The bare-HTTP reference is a net/http server that answers the
// benchmark's requests with replies shaped and sized like pd2d's and
// does nothing else: no admission, no engine, no log. Every round drives
// it with the same requests as the system, right before or after the
// system, and the gated timings are the system's divided by the
// reference's. The host's speed drifts by tens of percent from minute to
// minute, and moves both sides of the ratio alike; a change to pd2d moves
// only the numerator, since the reference is the benchmark's own code.

// refRead stands in for a shard's status reply, which is about 600 bytes.
var refRead = []byte(`{"shard":0,"now":1,"reference":"` + strings.Repeat("x", 560) + `"}`)

var (
	refQueued  = []byte(`{"status":"queued","slot":1}`)
	refAdvance = []byte(`{"now":1}`)
)

// ReferenceHandler serves the bare-HTTP reference: each command in a
// write is answered "queued", an advance with the new clock, a read with
// a status-sized object.
func ReferenceHandler() http.Handler {
	mux := http.NewServeMux()
	reply := func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // the client sees a short reply as a failed check
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { reply(w, []byte("ok")) })
	mux.HandleFunc("GET /v1/shards/{s}", func(w http.ResponseWriter, r *http.Request) { reply(w, refRead) })
	mux.HandleFunc("POST /v1/shards/{s}/advance", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the body is not used
		reply(w, refAdvance)
	})
	mux.HandleFunc("POST /v1/shards/{s}/commands", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) == 0 || body[0] != '[' {
			reply(w, refQueued)
			return
		}
		out := []byte{'['}
		for i, n := 0, bytes.Count(body, []byte(`"op"`)); i < n; i++ {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, refQueued...)
		}
		reply(w, append(out, ']'))
	})
	return mux
}
