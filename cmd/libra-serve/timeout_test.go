package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// startServer serves h through newServer on a loopback port.
func startServer(t *testing.T, headerTimeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	srv := newServer(h, headerTimeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// A client that stops mid-header must have its connection closed once the
// header timeout passes, instead of holding it open indefinitely.
func TestServerClosesStalledHeader(t *testing.T) {
	addr := startServer(t, 200*time.Millisecond)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: libra\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after a stalled header", time.Since(start))
	}
	if n != 0 || err == nil {
		t.Fatalf("stalled client read %d bytes, err %v; want the connection closed", n, err)
	}
}

// A complete request on the same server is answered normally: the timeout
// only bounds how long headers may take.
func TestServerAnswersPromptHeader(t *testing.T) {
	addr := startServer(t, 200*time.Millisecond)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: libra\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

func TestServerTimeoutsSet(t *testing.T) {
	srv := newServer(http.NotFoundHandler(), readHeaderTimeout)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("ReadHeaderTimeout %v IdleTimeout %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v WriteTimeout %v would cut SSE streams", srv.ReadTimeout, srv.WriteTimeout)
	}
}
