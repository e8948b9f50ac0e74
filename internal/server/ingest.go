package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/db"
	"repro/internal/fleet"
)

// Ingestor is the optional mutation surface of a Backend — the fleet's
// replica mutation surface, which *shard.DB and *fleet.Fleet satisfy; a
// backend without it (or a server with ingestion disabled) answers the
// document endpoints with 501.
//
//	POST   /docs          {"name": "...", "xml": "..."}  add a document
//	PUT    /docs/{name}   {"xml": "..."}                 replace a document
//	DELETE /docs/{name}                                  delete a document
//
// Successful mutations return the backend's new mutation generation, a
// cheap staleness token clients can compare across requests. Error codes:
// conflict (409) for adding an existing name, not_found (404) for
// updating or deleting an unknown one, unprocessable (422) for XML that
// does not parse, not_implemented (501) when ingestion is unavailable.
type Ingestor = fleet.Ingestor

// ingestor returns the mutation surface, or nil when the backend does not
// support ingestion or the server has it disabled.
func (s *Server) ingestor() Ingestor {
	if !s.EnableIngest {
		return nil
	}
	ing, _ := s.DB.(Ingestor)
	return ing
}

// ingestStatus maps a mutation error to its HTTP status.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, db.ErrDocumentExists):
		return http.StatusConflict
	case errors.Is(err, db.ErrDocumentNotFound):
		return http.StatusNotFound
	}
	return http.StatusUnprocessableEntity
}

// IngestRequest is the POST /docs (and, without Name, PUT /docs/{name})
// payload.
type IngestRequest struct {
	Name string `json:"name,omitempty"`
	XML  string `json:"xml"`
}

// IngestResponse acknowledges one mutation.
type IngestResponse struct {
	Name       string `json:"name"`
	Documents  int    `json:"documents"`
	Generation uint64 `json:"generation"`
}

// requireIngestor resolves the mutation surface or answers 501.
func (s *Server) requireIngestor(w http.ResponseWriter) Ingestor {
	ing := s.ingestor()
	if ing == nil {
		errorJSON(w, http.StatusNotImplemented, fmt.Errorf("ingestion is not enabled on this server"))
	}
	return ing
}

// ackIngest writes the post-mutation acknowledgement.
func (s *Server) ackIngest(w http.ResponseWriter, ing Ingestor, name string) {
	writeJSON(w, IngestResponse{
		Name:       name,
		Documents:  s.DB.DocumentCount(),
		Generation: ing.Generation(),
	})
}

func (s *Server) handleAddDoc(w http.ResponseWriter, r *http.Request) {
	ing := s.requireIngestor(w)
	if ing == nil {
		return
	}
	var req IngestRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" || req.XML == "" {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("both name and xml are required"))
		return
	}
	if err := ing.Add(req.Name, req.XML); err != nil {
		errorJSON(w, ingestStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	s.ackIngest(w, ing, req.Name)
}

func (s *Server) handleUpdateDoc(w http.ResponseWriter, r *http.Request) {
	ing := s.requireIngestor(w)
	if ing == nil {
		return
	}
	name := r.PathValue("name")
	var req IngestRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if name == "" || req.XML == "" {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("document name and xml are required"))
		return
	}
	if req.Name != "" && req.Name != name {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("body name %q does not match path %q", req.Name, name))
		return
	}
	if err := ing.Update(name, req.XML); err != nil {
		errorJSON(w, ingestStatus(err), err)
		return
	}
	s.ackIngest(w, ing, name)
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	ing := s.requireIngestor(w)
	if ing == nil {
		return
	}
	name := r.PathValue("name")
	if name == "" {
		errorJSON(w, http.StatusBadRequest, fmt.Errorf("document name is required"))
		return
	}
	if err := ing.Delete(name); err != nil {
		errorJSON(w, ingestStatus(err), err)
		return
	}
	s.ackIngest(w, ing, name)
}
