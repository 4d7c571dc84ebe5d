package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

// Short stand-ins for readHeaderTimeout, readTimeout and idleTimeout.
const (
	testHeaderTimeout = 100 * time.Millisecond
	testReadTimeout   = 200 * time.Millisecond
	testIdleTimeout   = 200 * time.Millisecond
)

// serveLocal runs newHTTPServer with the short timeouts on a loopback port
// and returns its address.
func serveLocal(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", h, testHeaderTimeout, testReadTimeout, testIdleTimeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// A client that stalls mid-header is disconnected once the header timeout
// passes, instead of holding the connection indefinitely.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	addr := serveLocal(t, http.NotFoundHandler())
	// The server arms its deadline when it starts reading, which can be
	// before Dial returns: start the clock first.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: hostnetd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server still holds a connection stalled mid-header after 10 s")
	}
	if waited := time.Since(start); waited < testHeaderTimeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", waited, testHeaderTimeout)
	}
}

// A client that sends its headers and then stalls mid-body is disconnected
// once the read timeout passes.
func TestStalledBodyIsDisconnected(t *testing.T) {
	addr := serveLocal(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // as the spec decoders read a submission
	}))
	// The server arms its deadline when it starts reading, which can be
	// before Dial returns: start the clock first.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /jobs HTTP/1.1\r\nHost: hostnetd\r\nContent-Length: 100\r\n\r\n{\"experiment\""); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server still holds a connection stalled mid-body after 10 s")
	}
	if waited := time.Since(start); waited < testReadTimeout {
		t.Fatalf("connection closed after %v, before the %v read timeout", waited, testReadTimeout)
	}
}

// A long-poll that outlasts every timeout still receives its bytes. The
// handler abandons the wait when its request context ends, as the
// ?wait=true result handler does, so a timeout that cancels running
// requests would show as a missing body.
func TestLongPollOutlastsTimeouts(t *testing.T) {
	hold := 3 * (testHeaderTimeout + testReadTimeout + testIdleTimeout)
	addr := serveLocal(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(hold):
			io.WriteString(w, "result bytes")
		case <-r.Context().Done():
		}
	}))
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/jobs/j1/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "result bytes" {
		t.Fatalf("long-poll body %q after %v, want the result bytes", body, time.Since(start))
	}
}

// A client that submits and then streams on the same keep-alive connection
// receives every flushed line, though the stream outlasts every timeout:
// the read deadline the POST armed ends with its body.
func TestStreamAfterSubmitOutlastsTimeouts(t *testing.T) {
	hold := 3 * (testHeaderTimeout + testReadTimeout + testIdleTimeout)
	addr := serveLocal(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, "accepted")
			return
		}
		io.WriteString(w, "status\n")
		w.(http.Flusher).Flush()
		select {
		case <-time.After(hold):
			io.WriteString(w, "done\n")
		case <-r.Context().Done():
		}
	}))
	var reused bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	resp, err := client.Post("http://"+addr+"/jobs", "application/json", strings.NewReader(`{"experiment":"fig3"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	req, err := http.NewRequest("GET", "http://"+addr+"/jobs/j1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !reused {
		t.Fatal("the stream did not reuse the submit's keep-alive connection")
	}
	var lines []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	if strings.Join(lines, ",") != "status,done" {
		t.Fatalf("stream lines %q, want status then done", lines)
	}
}
