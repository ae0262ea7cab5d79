package main

import (
	"log"
	"net/http"
	"testing"
)

// TestHTTPServerBoundsConnections: the API server must bound both how long
// a client may take to send its headers and how long an idle keep-alive
// connection is held; a zero value means no bound at all.
func TestHTTPServerBoundsConnections(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler(), log.Default())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want a positive bound", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want a positive bound", hs.IdleTimeout)
	}
}
