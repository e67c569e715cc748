package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts: the service server bounds header reads and
// idle keep-alive connections but never the time an answer may stream.
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 || s.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; streamed answers must not be cut", s.WriteTimeout, s.ReadTimeout)
	}
}
