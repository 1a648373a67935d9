// Hostile-client tests: truncated bodies, mid-body disconnects, stalled
// (slow-loris) connections, lying and cap-straddling body lengths, and
// inputs that overflow the engine, on the v2 infer path. The contract:
// such requests die as 4xx or connection teardowns, never count against
// any version's health, and never leak a governor reservation — the
// fleet only acquires a version after the body has fully arrived.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"godisc/internal/serve"
	"godisc/internal/tensor"
)

// hostileFixture is a governed fixture so reservation leaks are visible
// on the ledger.
func hostileFixture(t *testing.T) *fixture {
	t.Helper()
	var budget int64
	for _, s := range fixtureSpecs() {
		for _, v := range []string{"1", "2"} {
			budget += fixtureBytes(s.name, v)
		}
	}
	return newFixture(t, fixtureOpts{budget: budget * 2})
}

// dialFleet opens a raw TCP connection to the fixture's listener.
func dialFleet(t *testing.T, ts *httptest.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// assertUnharmed verifies the fleet took no damage from a hostile
// connection: the ledger is back to its pre-attack level, every version
// is still HEALTHY, and a normal request succeeds.
func assertUnharmed(t *testing.T, fx *fixture, reservedBefore int64) {
	t.Helper()
	fx.infer(t, "alpha", "", 2, nil)
	if got := fx.gov.Stats().ReservedBytes; got != reservedBefore {
		t.Fatalf("governor ledger moved: %d reserved, want %d (leaked reservation)", got, reservedBefore)
	}
	for _, st := range fx.f.Index() {
		if st.Health != HealthHealthy {
			t.Fatalf("%s:%s health = %s after hostile client, want HEALTHY", st.Name, st.Version, st.Health)
		}
	}
}

// partialInfer is a valid request prefix: complete headers declaring a
// 5000-byte body, then only a fragment of it.
const partialInfer = "POST /v2/models/alpha/infer HTTP/1.1\r\n" +
	"Host: fleet\r\nContent-Type: application/json\r\nContent-Length: 5000\r\n\r\n" +
	`{"inputs":[{"name":"x","shape":[2,8]`

// TestHostileTruncatedBody: a client that half-closes mid-body (FIN with
// the read side still open) gets a 400, not a hang and not a 5xx.
func TestHostileTruncatedBody(t *testing.T) {
	fx := hostileFixture(t)
	before := fx.gov.Stats().ReservedBytes

	conn := dialFleet(t, fx.ts)
	defer conn.Close()
	if _, err := conn.Write([]byte(partialInfer)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response to truncated body: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body answered %d, want 400", resp.StatusCode)
	}
	assertUnharmed(t, fx, before)
}

// TestHostileMidBodyDisconnect: a client that vanishes mid-body (full
// close) leaves no trace — no health damage, no ledger movement, and the
// next request serves normally.
func TestHostileMidBodyDisconnect(t *testing.T) {
	fx := hostileFixture(t)
	before := fx.gov.Stats().ReservedBytes

	for i := 0; i < 8; i++ {
		conn := dialFleet(t, fx.ts)
		_, _ = conn.Write([]byte(partialInfer))
		conn.Close()
	}
	// Give net/http a beat to notice the dead connections.
	time.Sleep(20 * time.Millisecond)
	assertUnharmed(t, fx, before)
}

// TestHostileStalledRead: with the hardened server timeouts discserve
// configures (ReadHeaderTimeout / ReadTimeout), a slow-loris connection
// — headers that never finish, or a body that never arrives — is torn
// down by the server instead of pinning a goroutine forever.
func TestHostileStalledRead(t *testing.T) {
	fx := hostileFixture(t)
	before := fx.gov.Stats().ReservedBytes

	ts := httptest.NewUnstartedServer(fx.f)
	ts.Config.ReadHeaderTimeout = 100 * time.Millisecond
	ts.Config.ReadTimeout = 300 * time.Millisecond
	ts.Start()
	defer ts.Close()

	// Stalled headers: the server must close the connection on its own.
	hdrConn := dialFleet(t, ts)
	defer hdrConn.Close()
	if _, err := hdrConn.Write([]byte("POST /v2/models/alpha/infer HTTP/1.1\r\nHost: fl")); err != nil {
		t.Fatal(err)
	}
	_ = hdrConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := hdrConn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a stalled-header connection alive past ReadHeaderTimeout")
	}

	// Stalled body: complete headers, a fragment of the body, then
	// nothing. ReadTimeout must unblock the handler's body read.
	bodyConn := dialFleet(t, ts)
	defer bodyConn.Close()
	if _, err := bodyConn.Write([]byte(partialInfer)); err != nil {
		t.Fatal(err)
	}
	_ = bodyConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	if _, err := bodyConn.Read(buf); err == nil {
		// A 400 response is also acceptable — the read error surfaced to
		// the handler, which answered before the connection died.
		if !strings.Contains(string(buf), " 400 ") {
			t.Fatalf("stalled-body connection got unexpected response: %q", buf)
		}
	}

	// The normal listener (no hostile connections) still serves, and
	// nothing leaked.
	assertUnharmed(t, fx, before)
}

// TestHostileLyingContentLength: a Content-Length of a terabyte in front
// of a ten-byte body sizes nothing — the pooled buffer is pre-sized only
// from a length the body cap admits — and answers what any truncated body
// answers.
func TestHostileLyingContentLength(t *testing.T) {
	fx := hostileFixture(t)
	before := fx.gov.Stats().ReservedBytes

	conn := dialFleet(t, fx.ts)
	defer conn.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := conn.Write([]byte("POST /v2/models/alpha/infer HTTP/1.1\r\n" +
		"Host: fleet\r\nContent-Type: application/json\r\nContent-Length: 1099511627776\r\n\r\n" +
		`{"inputs":`)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response to a lying Content-Length: %v", err)
	}
	defer resp.Body.Close()
	runtime.ReadMemStats(&m1)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lying Content-Length answered %d, want 400", resp.StatusCode)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a 10-byte body allocated %d bytes", grew)
	}
	assertUnharmed(t, fx, before)
}

// TestHostileBodyAtTheCap: a body of exactly MaxBodyBytes is served, one
// byte more is 413 — with a declared length and chunked alike (the chunked
// upload also walks the buffer's grow-as-you-read path).
func TestHostileBodyAtTheCap(t *testing.T) {
	const maxBody = 2048
	fx := newFixture(t, fixtureOpts{budget: 1 << 20, maxBody: maxBody})
	before := fx.gov.Stats().ReservedBytes

	body := f32Request(t, []int64{2, 8}, randInput(1, 2, 8))
	atCap := append(body, bytes.Repeat([]byte(" "), maxBody-len(body))...)
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		want    int
	}{
		{"at the cap", atCap, false, http.StatusOK},
		{"at the cap, chunked", atCap, true, http.StatusOK},
		{"one byte over", append(atCap[:maxBody:maxBody], ' '), false, http.StatusRequestEntityTooLarge},
		{"one byte over, chunked", append(atCap[:maxBody:maxBody], ' '), true, http.StatusRequestEntityTooLarge},
	} {
		var rd io.Reader = bytes.NewReader(tc.body)
		if tc.chunked {
			rd = io.NopCloser(rd) // hides the length: the client sends chunked
		}
		resp, err := http.Post(fx.ts.URL+"/v2/models/alpha/infer", "application/json", rd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%.200s)", tc.name, resp.StatusCode, tc.want, payload)
		}
		assertUnharmed(t, fx, before)
	}
}

// TestHostileNonFiniteOutput: inputs that drive the engine to ±Inf/NaN get
// the status and the JSON error envelope the encoding/json reply path gave
// them — decided before the first reply byte, so never a partial 200.
func TestHostileNonFiniteOutput(t *testing.T) {
	fx := hostileFixture(t)
	before := fx.gov.Stats().ReservedBytes

	huge := make([]float32, 16)
	for i := range huge {
		huge[i] = 3e38
	}
	direct, err := fx.srv.Infer(context.Background(), &serve.Request{Model: "alpha:1",
		Inputs: []*tensor.Tensor{tensor.FromF32(append([]float32(nil), huge...), 2, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := encodeRef("alpha", "1", "", direct)
	if werr == nil {
		t.Fatalf("fixture premise: 3e38 inputs must overflow, got %v", direct.Outputs[0])
	}
	want, _ := json.Marshal(map[string]string{"error": werr.Error()})

	code, payload := fx.do(t, http.MethodPost, "/v2/models/alpha/versions/1/infer",
		f32Request(t, []int64{2, 8}, huge), nil)
	if code != StatusFor(werr) || code != http.StatusInternalServerError {
		t.Fatalf("non-finite output answered %d, want %d", code, StatusFor(werr))
	}
	if string(payload) != string(want)+"\n" {
		t.Fatalf("error envelope differs\n got %q\nwant %q", payload, want)
	}
	assertUnharmed(t, fx, before)
}
