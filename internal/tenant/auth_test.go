package tenant

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mlvfpga/internal/metrics"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry(
		Tenant{ID: "alice", Key: "alice-secret", Class: Latency, Admin: true},
		Tenant{ID: "bob", Key: "bob-secret", Class: Batch},
	)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// echoTenant answers 200 with the authenticated tenant id (or "anon").
var echoTenant = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	id := "anon"
	if t, ok := FromRequest(r); ok {
		id = t.ID
	}
	_, _ = w.Write([]byte(id))
})

// signedReq builds a correctly signed POST for the given tenant.
func signedReq(id, key, path string, body []byte, now time.Time, nonce string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	SignRequest(r, id, []byte(key), body, now, nonce)
	return r
}

func authFailures(id string) int64 {
	return metrics.Snapshot().Tenant(metrics.TenantAuthFailures, id)
}

func TestGuardAcceptsSignedRequest(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(echoTenant)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("bob", "bob-secret", "/infer", []byte(`{"id":1}`), now, "n1"))
	if w.Code != http.StatusOK || w.Body.String() != "bob" {
		t.Fatalf("signed request: code %d body %q", w.Code, w.Body.String())
	}

	// GET passes through unauthenticated.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/status", nil))
	if w.Code != http.StatusOK || w.Body.String() != "anon" {
		t.Fatalf("GET passthrough: code %d body %q", w.Code, w.Body.String())
	}
}

func TestGuardAdmin(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(echoTenant)

	// Non-admin on an admin prefix: authenticated but forbidden.
	before := authFailures("bob")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("bob", "bob-secret", "/cluster/kill", []byte(`{"id":0}`), now, "n-admin-1"))
	if w.Code != http.StatusForbidden {
		t.Fatalf("non-admin /cluster/kill: code %d, want 403", w.Code)
	}
	if got := authFailures("bob"); got != before+1 {
		t.Fatalf("auth failure counter delta = %d, want 1", got-before)
	}

	// Admin passes.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("alice", "alice-secret", "/cluster/kill", []byte(`{"id":0}`), now, "n-admin-2"))
	if w.Code != http.StatusOK {
		t.Fatalf("admin /cluster/kill: code %d, want 200", w.Code)
	}
}

func TestGuardRejections(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(echoTenant)
	body := []byte(`{"id":1}`)

	cases := []struct {
		name    string
		build   func() *http.Request
		code    int
		counted string // tenant id the failure is attributed to
	}{
		{
			name: "missing headers",
			build: func() *http.Request {
				return httptest.NewRequest(http.MethodPost, "/deploy", bytes.NewReader(body))
			},
			code:    http.StatusUnauthorized,
			counted: "unknown",
		},
		{
			name: "unknown tenant",
			build: func() *http.Request {
				return signedReq("mallory", "whatever", "/deploy", body, now, "n1")
			},
			code:    http.StatusUnauthorized,
			counted: "unknown",
		},
		{
			name: "expired timestamp",
			build: func() *http.Request {
				stale := now.Add(-3 * time.Minute)
				return signedReq("bob", "bob-secret", "/deploy", body, stale, "n2")
			},
			code:    http.StatusUnauthorized,
			counted: "bob",
		},
		{
			name: "future timestamp",
			build: func() *http.Request {
				ahead := now.Add(3 * time.Minute)
				return signedReq("bob", "bob-secret", "/deploy", body, ahead, "n3")
			},
			code:    http.StatusUnauthorized,
			counted: "bob",
		},
		{
			name: "malformed timestamp",
			build: func() *http.Request {
				r := signedReq("bob", "bob-secret", "/deploy", body, now, "n4")
				r.Header.Set(HeaderTimestamp, "yesterday")
				return r
			},
			code:    http.StatusUnauthorized,
			counted: "bob",
		},
		{
			name: "tampered body",
			build: func() *http.Request {
				r := signedReq("bob", "bob-secret", "/deploy", body, now, "n5")
				r.Body = httptest.NewRequest(http.MethodPost, "/deploy",
					bytes.NewReader([]byte(`{"id":999}`))).Body
				return r
			},
			code:    http.StatusUnauthorized,
			counted: "bob",
		},
		{
			name: "wrong key",
			build: func() *http.Request {
				return signedReq("bob", "not-bobs-key", "/deploy", body, now, "n6")
			},
			code:    http.StatusUnauthorized,
			counted: "bob",
		},
		{
			name: "signature for another path",
			build: func() *http.Request {
				r := signedReq("bob", "bob-secret", "/deploy", body, now, "n7")
				r2 := httptest.NewRequest(http.MethodPost, "/release", bytes.NewReader(body))
				r2.Header = r.Header
				return r2
			},
			code:    http.StatusUnauthorized,
			counted: "bob",
		},
		{
			name: "Content-Length over the cap",
			build: func() *http.Request {
				r := signedReq("bob", "bob-secret", "/deploy", body, now, "n8")
				r.ContentLength = MaxBody + 1
				return r
			},
			code:    http.StatusRequestEntityTooLarge,
			counted: "bob",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := authFailures(tc.counted)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, tc.build())
			if w.Code != tc.code {
				t.Fatalf("code %d, want %d (body %s)", w.Code, tc.code, w.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("rejection body %q is not a JSON error", w.Body.String())
			}
			if got := authFailures(tc.counted); got != before+1 {
				t.Fatalf("auth failures for %s: delta %d, want 1", tc.counted, got-before)
			}
		})
	}
}

// TestGuardRejectBoundsMetricKeys: the X-MLV-Tenant header is read before
// the tenant is authenticated, so rejections may only create per-tenant
// metric keys for registered ids — a thousand bogus ids share "unknown".
func TestGuardRejectBoundsMetricKeys(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(echoTenant)
	body := []byte(`{"id":1}`)
	before := metrics.Snapshot()
	const N = 1000
	for i := 0; i < N; i++ {
		id := "bogus-" + strconv.Itoa(i)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, signedReq(id, "whatever", "/deploy", body, now, "k"+strconv.Itoa(i)))
		if w.Code != http.StatusUnauthorized {
			t.Fatalf("%s: code %d, want 401", id, w.Code)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("bob", "not-bobs-key", "/deploy", body, now, "kb"))
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("bad signature: code %d, want 401", w.Code)
	}

	moved := metrics.Snapshot().Sub(before)
	for _, m := range []*expvar.Map{metrics.TenantAuthFailures, metrics.TenantRejections} {
		name := metrics.Name(m)
		m.Do(func(kv expvar.KeyValue) {
			if strings.HasPrefix(kv.Key, "bogus-") {
				t.Errorf("%s grew a key for unregistered id %q", name, kv.Key)
			}
		})
		if d := moved.Tenant(m, "unknown"); d != N {
			t.Errorf("%s[unknown] moved %d, want %d", name, d, N)
		}
		if d := moved.Tenant(m, "bob"); d != 1 {
			t.Errorf("%s[bob] moved %d, want 1", name, d)
		}
	}
}

// TestGuardConcurrentBodies sends distinct signed bodies from 64
// goroutines, half as alice and half as bob, through the guard. The
// handler answers with the tenant FromRequest names, then reads its body
// again with ReadBody, as the rms and cluster handlers do, and must get
// the guard's buffer back rather than a second copy; every fourth request
// goes to a handler that never reads it. The pooled buffers must never
// carry one request's bytes or tenant into another, which a buffer put
// back twice would, and once the guard returns its request names no
// tenant.
func TestGuardConcurrentBodies(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		who, _ := FromRequest(r)
		_, _ = w.Write([]byte(who.ID + ":"))
		if r.URL.Path == "/skip" {
			return
		}
		body, err := ReadBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		defer FreeBody(body)
		if body != r.Body {
			http.Error(w, "body read twice", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(body.Bytes())
	}))
	var wg sync.WaitGroup
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id, key := "alice", "alice-secret"
			if c%2 == 1 {
				id, key = "bob", "bob-secret"
			}
			for i := 0; i < 40; i++ {
				body := bytes.Repeat([]byte{byte('a' + c%26), byte('0' + c/26)}, 50+25*c+i)
				path, want := "/infer", append([]byte(id+":"), body...)
				if i%4 == 3 {
					path, want = "/skip", []byte(id+":")
				}
				w := httptest.NewRecorder()
				r := signedReq(id, key, path, body, now, fmt.Sprintf("c%d-%d", c, i))
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("client %d request %d: code %d, body %.20q…", c, i, w.Code, w.Body.String())
					return
				}
				if who, ok := FromRequest(r); ok {
					t.Errorf("client %d request %d: after the guard returned, FromRequest = %q", c, i, who.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestGuardLendsIdentityOnlyToAdmitted: a tenant reaches a handler only
// on a request the guard admitted, and only while that handler runs. A
// refused request never reaches the handler; an unguarded handler that
// reads its own pooled body, one the guard lent before, sees no tenant;
// and the request the guard admitted names none once it returns.
func TestGuardLendsIdentityOnlyToAdmitted(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	reached := 0
	h := g.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached++
		echoTenant(w, r)
	}))
	body := []byte(`{"id":0}`)

	admitted := signedReq("bob", "bob-secret", "/infer", body, now, "once")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, admitted)
	if w.Code != http.StatusOK || w.Body.String() != "bob" || reached != 1 {
		t.Fatalf("signed request: code %d body %q, reached %d", w.Code, w.Body.String(), reached)
	}
	if who, ok := FromRequest(admitted); ok {
		t.Errorf("after the guard returned, FromRequest = %q", who.ID)
	}

	for _, tc := range []struct {
		name string
		r    *http.Request
		code int
	}{
		{"bad signature", signedReq("bob", "not-bobs-key", "/infer", body, now, "n1"), http.StatusUnauthorized},
		{"replayed nonce", signedReq("bob", "bob-secret", "/infer", body, now, "once"), http.StatusUnauthorized},
		{"non-admin on /cluster/", signedReq("bob", "bob-secret", "/cluster/kill", body, now, "n2"), http.StatusForbidden},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, tc.r)
		if w.Code != tc.code || reached != 1 {
			t.Errorf("%s: code %d, want %d; the handler ran %d times, want once", tc.name, w.Code, tc.code, reached)
		}
		if who, ok := FromRequest(tc.r); ok {
			t.Errorf("%s: after the guard returned, FromRequest = %q", tc.name, who.ID)
		}
	}

	// The pool now holds bodies the guard lent; one read without it
	// carries no tenant, even put on the request as the guard puts its own.
	unguarded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := ReadBody(r)
		if err != nil {
			t.Fatal(err)
		}
		defer FreeBody(b)
		r.Body = b
		echoTenant(w, r)
	})
	for i := 0; i < 8; i++ {
		w := httptest.NewRecorder()
		unguarded.ServeHTTP(w, signedReq("alice", "alice-secret", "/infer", body, now, "u"+strconv.Itoa(i)))
		if w.Body.String() != "anon" {
			t.Fatalf("unguarded handler %d sees tenant %q", i, w.Body.String())
		}
	}
}

func TestGuardReplayedNonce(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(echoTenant)
	body := []byte(`{"id":1}`)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("bob", "bob-secret", "/infer", body, now, "replay-me"))
	if w.Code != http.StatusOK {
		t.Fatalf("first use: code %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("bob", "bob-secret", "/infer", body, now, "replay-me"))
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("replay: code %d, want 401", w.Code)
	}

	// Past the replay window (2×MaxSkew) the nonce may be reused — the
	// timestamp check is what rejects the stale original by then.
	now = now.Add(5 * time.Minute)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, signedReq("bob", "bob-secret", "/infer", body, now, "replay-me"))
	if w.Code != http.StatusOK {
		t.Fatalf("post-window reuse: code %d, want 200 (body %s)", w.Code, w.Body.String())
	}
}

func TestGuardNonceCap(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	g := NewGuard(testRegistry(t), GuardOptions{Now: func() time.Time { return now }})
	h := g.Wrap(echoTenant)
	body := []byte(`{}`)
	// Two short of a full window, so the third request below meets the cap.
	live := make(map[string]time.Time, maxNonces)
	for i := 0; i < maxNonces-2; i++ {
		live["old-"+strconv.Itoa(i)] = now.Add(time.Minute)
	}
	g.nonces["bob"] = live
	for i, want := range []int{200, 200, 401} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, signedReq("bob", "bob-secret", "/infer", body, now, "cap-"+strconv.Itoa(i)))
		if w.Code != want {
			t.Fatalf("request %d: code %d, want %d", i, w.Code, want)
		}
	}
}

func TestSignDeterministic(t *testing.T) {
	a := Sign([]byte("k"), "POST", "/deploy", []byte("b"), 42, "n")
	b := Sign([]byte("k"), "POST", "/deploy", []byte("b"), 42, "n")
	if a != b {
		t.Fatal("Sign is not deterministic")
	}
	if a == Sign([]byte("k2"), "POST", "/deploy", []byte("b"), 42, "n") {
		t.Fatal("key does not affect signature")
	}
	if a == Sign([]byte("k"), "POST", "/deploy", []byte("b"), 43, "n") {
		t.Fatal("timestamp does not affect signature")
	}

	// crypto/hmac over the fmt formula Sign used to be is the oracle: every
	// signature a client (`mlv sign`, `mlv cluster`) computes stays
	// byte-identical.
	rng := rand.New(rand.NewSource(1))
	text := func(max int) string {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return string(b)
	}
	// Keys of every length across the 64-byte block, where a longer one is
	// hashed first; paths and nonces up to 300 bytes overflow sign's stack
	// buffer.
	for klen := 0; klen <= 200; klen++ {
		for i := 0; i < 5; i++ {
			key := make([]byte, klen)
			rng.Read(key)
			body := []byte(text(2000))
			method, path, nonce := text(10), "/"+text(300), text(300)
			ts := rng.Int63() - rng.Int63()
			if got, want := Sign(key, method, path, body, ts, nonce), hmacOracle(key, method, path, body, ts, nonce); got != want {
				t.Fatalf("key length %d case %d: Sign = %s, crypto/hmac = %s", klen, i, got, want)
			}
		}
	}
	// Called twice per signed request, by the client and by the guard; the
	// returned string is all it allocates, at any key length.
	body := []byte(`{"id":1,"inputs":[[0.5]]}`)
	for _, key := range [][]byte{[]byte("bob-secret"), bytes.Repeat([]byte("k"), 100)} {
		if n := testing.AllocsPerRun(100, func() { _ = Sign(key, "POST", "/infer", body, 1_700_000_000, "7-123456") }); n > 1 {
			t.Errorf("Sign with a %d-byte key allocates %v times, want ≤ 1 (crypto/hmac took 8)", len(key), n)
		}
	}
}

// hmacOracle is the signature by crypto/hmac and fmt.
func hmacOracle(key []byte, method, path string, body []byte, ts int64, nonce string) string {
	sum := sha256.Sum256(body)
	mac := hmac.New(sha256.New, key)
	fmt.Fprintf(mac, "%s\n%s\n%s\n%d\n%s", method, path, hex.EncodeToString(sum[:]), ts, nonce)
	return hex.EncodeToString(mac.Sum(nil))
}

func FuzzSign(f *testing.F) {
	f.Add([]byte("bob-secret"), "POST", "/infer", []byte(`{"id":1}`), int64(1_700_000_000), "n1")
	f.Add(bytes.Repeat([]byte{0xff}, 65), "", "", []byte(nil), int64(-1), "")
	f.Add(bytes.Repeat([]byte("k"), 64), "DELETE", "/"+strings.Repeat("p", 300), []byte("b"), int64(0), strings.Repeat("n", 300))
	f.Fuzz(func(t *testing.T, key []byte, method, path string, body []byte, ts int64, nonce string) {
		if got, want := Sign(key, method, path, body, ts, nonce), hmacOracle(key, method, path, body, ts, nonce); got != want {
			t.Fatalf("Sign = %s, crypto/hmac = %s", got, want)
		}
	})
}

// TestSignRequestValues: the four headers SignRequest cuts from one
// string are the tenant, the decimal timestamp, the nonce and Sign's
// signature, byte for byte, at timestamps of every sign and length.
func TestSignRequestValues(t *testing.T) {
	body := []byte(`{"id":1}`)
	for _, ts := range []int64{1_700_000_000, 0, -1, 7, -62_135_596_800, 253_402_300_799} {
		r := httptest.NewRequest(http.MethodPost, "/deploy", bytes.NewReader(body))
		SignRequest(r, "bob", []byte("bob-secret"), body, time.Unix(ts, 0), "n-"+strconv.FormatInt(ts, 10))
		want := map[string]string{
			HeaderTenant:    "bob",
			HeaderTimestamp: strconv.FormatInt(ts, 10),
			HeaderNonce:     "n-" + strconv.FormatInt(ts, 10),
			HeaderSignature: Sign([]byte("bob-secret"), http.MethodPost, "/deploy", body, ts, "n-"+strconv.FormatInt(ts, 10)),
		}
		for name, v := range want {
			if got := r.Header.Values(name); len(got) != 1 || got[0] != v {
				t.Errorf("ts %d: %s = %q, want [%q]", ts, name, got, v)
			}
		}
	}
}

// The guard reads the headers by their canonical keys, which must be the
// exported names as http.Header keys them, or no request would verify.
func TestCanonicalHeaderKeys(t *testing.T) {
	for exported, key := range map[string]string{
		HeaderTenant: keyTenant, HeaderTimestamp: keyTimestamp, HeaderNonce: keyNonce, HeaderSignature: keySignature,
	} {
		if c := http.CanonicalHeaderKey(exported); c != key {
			t.Errorf("CanonicalHeaderKey(%q) = %q, the guard reads %q", exported, c, key)
		}
	}
}

// TestSignAndVerifyAllocations: signing a request allocates its header
// values (2: one string the timestamp and signature are cut from, and the
// []string backing all four; 3 when the timestamp was a string of its
// own), and the guard's verify path into a handler that never reads the
// body allocates nothing (2 when the tenant rode in a copied request's
// context), at key lengths on both sides of the 64-byte block. The handler
// not reading shows the guard puts the body back: a body left unfreed
// would be a pool miss per request.
func TestSignAndVerifyAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items under -race")
	}
	body := []byte(`{"id":1,"inputs":[[0.5,0.25]]}`)
	now := time.Unix(1_700_000_000, 0)
	r := signedReq("bob", "bob-secret", "/infer", body, now, "n")
	if n := testing.AllocsPerRun(100, func() { SignRequest(r, "bob", []byte("bob-secret"), body, now, "n") }); n > 2 {
		t.Errorf("SignRequest allocates %v times, want ≤ 2", n)
	}

	for _, klen := range []int{7, 64, 100} {
		key := strings.Repeat("k", klen)
		reg, err := NewRegistry(Tenant{ID: "t", Key: key})
		if err != nil {
			t.Fatal(err)
		}
		clock := now
		h := NewGuard(reg, GuardOptions{Now: func() time.Time { return clock }}).Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		// Requests are signed beforehand, an hour apart so that the nonce
		// table holds one entry.
		const runs = 100
		reqs := make([]*http.Request, runs+1)
		for i := range reqs {
			reqs[i] = signedReq("t", key, "/infer", body, now.Add(time.Duration(i)*time.Hour), "n"+strconv.Itoa(i))
		}
		w := httptest.NewRecorder()
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			clock = now.Add(time.Duration(i) * time.Hour)
			h.ServeHTTP(w, reqs[i])
			i++
		})
		if w.Code != http.StatusOK {
			t.Fatalf("key length %d: code %d (%s)", klen, w.Code, w.Body.String())
		}
		if allocs != 0 {
			t.Errorf("key length %d: the guard allocates %v times per request, want 0", klen, allocs)
		}
	}
}

// raceEnabled reports a -race build.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
