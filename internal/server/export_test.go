package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
)

// RequestKey is the key the slow path gives one POST /optimize with
// this raw query and body: RequestOptions.Key over the request's own
// parse. It returns an error when the query or the body is refused.
func RequestKey(query, src string) (string, error) {
	r := httptest.NewRequest(http.MethodPost, "/optimize", nil)
	r.URL.RawQuery = query
	o, name, perr := optionsFromQuery(r)
	if perr != "" {
		return "", errors.New(perr)
	}
	prog, err := o.Parse(name, src)
	if err != nil {
		return "", err
	}
	return o.Key(prog), nil
}

// MemoLen is the request memo's entry count.
func (s *Server) MemoLen() int { return s.memo.len() }
