// Content negotiation and pooled response encoding for the arcsd API.
//
// Each endpoint has one encoding per job. The fleet's peer RPCs are
// frame-only: /v1/merge and /v1/membership accept only
// application/x-arcs-bin bodies, and /v1/digest and /v1/transfer always
// answer with a frame. The surfaces people and curl use keep JSON:
// /v1/config and /v1/report(s) answer JSON unless the request asks for
// frames (Accept or Content-Type application/x-arcs-bin), and
// /v1/neighbors, /v1/dump, /healthz, /metrics and the membership
// responses stay JSON. Error bodies are always JSON — a binary client
// still reads the status code, and the body stays debuggable with curl.
//
// All response encoding goes through sync.Pools, so the config/report
// hot path does not allocate an encoder per response.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"arcs/internal/codec"
)

// acceptsBinary reports whether the client asked for binary responses
// on an endpoint that negotiates. Absence, */* or application/json keep
// the JSON default.
func acceptsBinary(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept") {
		if strings.Contains(v, codec.ContentType) {
			return true
		}
	}
	return false
}

// binaryBody reports whether the request body claims to be a binary
// frame (Content-Type: application/x-arcs-bin, parameters tolerated).
func binaryBody(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == codec.ContentType || strings.HasPrefix(ct, codec.ContentType+";")
}

// jsonBuf pairs a buffer with a json.Encoder bound to it for the life
// of the pool entry, so hot handlers neither allocate an encoder per
// response nor write to the socket in encoder-sized pieces.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// writeJSON encodes v through a pooled buffer and writes it with an
// exact Content-Length.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jsonBufPool.Put(jb)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		// Response types are plain structs and maps; encoding them cannot
		// fail at runtime, but a silent empty body would hide it if it did.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(jb.buf.Bytes())
}

// errorJSON writes a JSON error body with the given status, whatever
// the Accept header said.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// binBuf pairs a codec.Encoder with its output buffer; binDec pools
// Decoders so their intern tables survive across requests (the same
// app/workload/region names arrive on every report).
type binBuf struct {
	enc codec.Encoder
	buf []byte
}

var (
	binBufPool = sync.Pool{New: func() any { return new(binBuf) }}
	binDecPool = sync.Pool{New: func() any { return new(codec.Decoder) }}
)

// writeFrame answers 200 with the one frame encode appends to dst,
// built in a pooled buffer.
func writeFrame(w http.ResponseWriter, encode func(enc *codec.Encoder, dst []byte) []byte) {
	bb := binBufPool.Get().(*binBuf)
	defer binBufPool.Put(bb)
	bb.buf = encode(&bb.enc, bb.buf[:0])
	w.Header().Set("Content-Type", codec.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(bb.buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bb.buf)
}

// readFrameBody reads the body of a frame-only endpoint. Any other
// Content-Type is refused with 415 before the body is read, so a JSON
// body changes nothing.
func readFrameBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if !binaryBody(r) {
		errorJSON(w, http.StatusUnsupportedMediaType, "%s accepts %s frames only", r.URL.Path, codec.ContentType)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "read %s body: %v", r.URL.Path, err)
		return nil, false
	}
	return body, true
}

// writeConfig answers /v1/config in the negotiated encoding.
func writeConfig(w http.ResponseWriter, r *http.Request, resp ConfigResponse) {
	if !acceptsBinary(r) {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	ans := codec.ConfigAnswer{
		Key: resp.Key, Cfg: resp.Config, Perf: resp.Perf, Version: resp.Version,
		Source: resp.Source, CapDistance: resp.CapDistance,
	}
	writeFrame(w, func(enc *codec.Encoder, dst []byte) []byte { return enc.AppendConfigAnswer(dst, &ans) })
}

// writeAck acknowledges an ingest in the negotiated encoding.
func (s *Server) writeAck(w http.ResponseWriter, r *http.Request, saved int) {
	n := s.st.Len()
	if !acceptsBinary(r) {
		writeJSON(w, http.StatusOK, map[string]any{"saved": saved, "store_len": n})
		return
	}
	ack := codec.Ack{Saved: uint64(saved), StoreLen: uint64(n)}
	writeFrame(w, func(enc *codec.Encoder, dst []byte) []byte { return enc.AppendAck(dst, &ack) })
}
