package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
)

// RequestKey is the key the slow path gives one POST /optimize with
// this raw query and body: requestKey over the request's own parse. It
// returns an error when the query or the body is refused.
func RequestKey(query, src string) (string, error) {
	r := httptest.NewRequest(http.MethodPost, "/optimize", nil)
	r.URL.RawQuery = query
	o, explain, perr := optionsFromQuery(r)
	if perr != "" {
		return "", errors.New(perr)
	}
	prog, err := parseProgram(src, queryName(r), r.URL.Query().Get("lang"))
	if err != nil {
		return "", err
	}
	return requestKey(prog, o, explain), nil
}

// MemoLen is the request memo's entry count.
func (s *Server) MemoLen() int { return s.memo.len() }
