package service

import (
	"io"
	"net/http"

	"instrsample/internal/experiment"
)

// CAS endpoint metrics.
const (
	MetricCASHits     = "cas.get.hit"      // counter: GET /v1/cas served
	MetricCASMisses   = "cas.get.miss"     // counter: GET /v1/cas 404s
	MetricCASStored   = "cas.put.stored"   // counter: PUT /v1/cas accepted
	MetricCASRejected = "cas.put.rejected" // counter: PUT /v1/cas integrity rejects
)

// The CAS endpoints expose the executor's store (the local engine's disk
// cache, or the fleet coordinator's replica) as a network
// content-addressed store (DESIGN.md §15): GET serves an entry's raw
// stored bytes by address, PUT replicates an entry a peer computed.
// Every isampd worker and the isampfleet coordinator serve these two
// handlers, so any node's warm cache benefits the whole fleet. A PUT is
// verified against the address before it touches the store — a receiver
// never trusts the sender: a mismatch is a 422 integrity reject, while a
// store that cannot be written is a 500 and no reject. A node without a
// store answers 404 for the whole surface.

func (s *Server) handleCASGet(w http.ResponseWriter, r *http.Request) {
	cache := s.exec.Cache()
	if cache == nil {
		writeErr(w, http.StatusNotFound, "no cache configured")
		return
	}
	addr := r.PathValue("addr")
	if !experiment.ValidAddr(addr) {
		writeErr(w, http.StatusBadRequest, "invalid CAS address %q", addr)
		return
	}
	data, ok := cache.GetAddr(addr)
	if !ok {
		s.reg.Counter(MetricCASMisses).Inc()
		writeErr(w, http.StatusNotFound, "no entry at %s", addr)
		return
	}
	s.reg.Counter(MetricCASHits).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client went away
}

func (s *Server) handleCASPut(w http.ResponseWriter, r *http.Request) {
	cache := s.exec.Cache()
	if cache == nil {
		writeErr(w, http.StatusNotFound, "no cache configured")
		return
	}
	addr := r.PathValue("addr")
	if !experiment.ValidAddr(addr) {
		writeErr(w, http.StatusBadRequest, "invalid CAS address %q", addr)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "body: %v", err)
		return
	}
	if err := experiment.VerifyCAS(cache.ID(), addr, body); err != nil {
		s.reg.Counter(MetricCASRejected).Inc()
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if err := cache.PutAddr(addr, body); err != nil {
		writeErr(w, http.StatusInternalServerError, "store: %v", err)
		return
	}
	s.reg.Counter(MetricCASStored).Inc()
	writeJSON(w, http.StatusOK, map[string]string{"stored": addr})
}

// BuildResult assembles a job's terminal payload from its engine cell
// result(s) — ref is the overlap reference cell, nil otherwise. It is
// exported for the fleet coordinator, which resolves CAS fast-path hits
// into the same result shape a local run produces, so remote hits stay
// byte-identical with local ones.
func BuildResult(spec JobSpec, main, ref *experiment.CellResult) *JobResult {
	return buildResult(spec, main, ref)
}
