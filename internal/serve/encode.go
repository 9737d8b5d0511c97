package serve

import (
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"hypre/internal/cache"
	"hypre/internal/combine"
)

// The 200 of POST /v1/query is the one response on the cache-hit path, so
// it is appended by hand rather than through encoding/json's reflection.
// Its bytes are exactly what json.NewEncoder(w).Encode writes for
//
//	struct {
//		Outcome     string `json:"outcome"`
//		Fingerprint string `json:"fingerprint"`
//		K           int    `json:"k"`
//		Results     []struct {
//			PID   int64   `json:"pid"`
//			Score float64 `json:"score"`
//		} `json:"results"`
//	}
//
// with Results never null, trailing newline included. Every other response
// goes through writeJSON.

// jsonContentType is assigned to every JSON response's header; net/http
// only reads it.
var jsonContentType = []string{"application/json"}

// maxPooledBody bounds the buffers bodyPool keeps: a MaxK-sized answer
// reuses its buffer, an outsized one is left to the collector.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// writeQueryResponse answers a served query with its 200, or 500 when a
// score cannot be written as JSON.
func writeQueryResponse(w http.ResponseWriter, out cache.Outcome, fp combine.Fingerprint, k int, res []combine.ScoredTuple) {
	buf := bodyPool.Get().(*[]byte)
	body, err := appendQueryResponse((*buf)[:0], out.String(), fp, k, res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encode response: %v", err))
	} else {
		writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
}

// writeBody sends one already-encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck
}

// appendQueryResponse appends a query's 200 body to b. outcome must need no
// JSON escaping (cache.Outcome's names do not). A non-finite score is an
// error, as it is to encoding/json.
func appendQueryResponse(b []byte, outcome string, fp combine.Fingerprint, k int, res []combine.ScoredTuple) ([]byte, error) {
	b = append(b, `{"outcome":"`...)
	b = append(b, outcome...)
	b = append(b, `","fingerprint":"`...)
	b = hex.AppendEncode(b, fp[:])
	b = append(b, `","k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"results":[`...)
	for i, t := range res {
		if math.IsInf(t.Intensity, 0) || math.IsNaN(t.Intensity) {
			return b, fmt.Errorf("pid %d has score %v, which JSON cannot carry", t.PID, t.Intensity)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"pid":`...)
		b = strconv.AppendInt(b, t.PID, 10)
		b = append(b, `,"score":`...)
		b = appendScore(b, t.Intensity)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}

// appendScore appends a finite f as encoding/json encodes a float64: ES6
// number formatting, so the shortest round-trip digits, in exponent form
// below 1e-6 and at or above 1e21, with a one-digit negative exponent
// unpadded (e-7, not e-07).
func appendScore(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
