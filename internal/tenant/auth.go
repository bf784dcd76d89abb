package tenant

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlvfpga/internal/metrics"
)

// Signed-request headers. The signature is HMAC-SHA256 over the canonical
// string
//
//	METHOD \n PATH \n hex(SHA256(body)) \n TIMESTAMP \n NONCE
//
// with the tenant's shared key, hex-encoded. TIMESTAMP is decimal unix
// seconds and must fall within the guard's skew window; NONCE is an
// arbitrary client-unique string replayed requests are rejected by.
const (
	HeaderTenant    = "X-MLV-Tenant"
	HeaderTimestamp = "X-MLV-Timestamp"
	HeaderNonce     = "X-MLV-Nonce"
	HeaderSignature = "X-MLV-Signature"
)

// The same headers as http.Header keys them; a key in any other form is
// canonicalised, which allocates, on every Header.Get or Header.Set.
const keyTenant, keyTimestamp, keyNonce, keySignature = "X-Mlv-Tenant", "X-Mlv-Timestamp", "X-Mlv-Nonce", "X-Mlv-Signature"

// Sign computes the request signature a client must send (and the guard
// recomputes): hex HMAC-SHA256 over the canonical string.
func Sign(key []byte, method, path string, body []byte, unixTS int64, nonce string) string {
	sig := sign(key, method, path, body, unixTS, nonce)
	return string(sig[:])
}

// sign is Sign into a fixed array, which the guard compares as it is: HMAC
// by its definition (RFC 2104), H((K0⊕opad) ‖ H((K0⊕ipad) ‖ msg)), over a
// stack buffer sized for typical requests that a longer one spills from.
// K0 is the key zero-padded to one block, or its digest if longer.
func sign[K string | []byte](key K, method, path string, body []byte, unixTS int64, nonce string) (sig [2 * sha256.Size]byte) {
	var k0 [sha256.BlockSize]byte
	var buf [sha256.BlockSize + 256]byte
	if len(key) > len(k0) {
		d := sha256.Sum256(append(buf[:0], key...))
		copy(k0[:], d[:])
	} else {
		copy(k0[:], key)
	}
	for i, b := range k0 {
		buf[i] = b ^ 0x36
	}
	sum := sha256.Sum256(body)
	msg := append(append(append(append(buf[:len(k0)], method...), '\n'), path...), '\n')
	msg = append(strconv.AppendInt(append(hex.AppendEncode(msg, sum[:]), '\n'), unixTS, 10), '\n')
	inner := sha256.Sum256(append(msg, nonce...))
	for i, b := range k0 {
		buf[i] = b ^ 0x5c
	}
	mac := sha256.Sum256(append(buf[:len(k0)], inner[:]...))
	hex.Encode(sig[:], mac[:])
	return sig
}

// SignRequest stamps the four auth headers onto an outgoing request whose
// body bytes are supplied explicitly (the caller keeps r.Body readable),
// in two allocations: one string holding the timestamp and signature, and
// the four values' backing array.
func SignRequest(r *http.Request, id string, key []byte, body []byte, now time.Time, nonce string) {
	ts := now.Unix()
	sig := sign(key, r.Method, r.URL.Path, body, ts, nonce)
	var buf [len("-9223372036854775808") + len(sig)]byte
	s := string(append(strconv.AppendInt(buf[:0], ts, 10), sig[:]...))
	n := len(s) - len(sig)
	v := []string{id, s[:n], nonce, s[n:]}
	h := r.Header
	h[keyTenant], h[keyTimestamp], h[keyNonce], h[keySignature] = v[0:1:1], v[1:2:2], v[2:3:3], v[3:4:4]
}

// ctxKey is the context key carrying the authenticated *Tenant.
type ctxKey struct{}

// WithTenant returns ctx carrying t as the authenticated caller.
func WithTenant(ctx context.Context, t Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, &t)
}

// FromRequest returns the authenticated tenant, if any: the one riding on
// the body a guard lent r while its handler runs, else one WithTenant put
// in r's context. Unguarded (insecure) requests are anonymous.
func FromRequest(r *http.Request) (Tenant, bool) {
	if b, ok := r.Body.(*Body); ok && b.who != nil {
		return *b.who, true
	}
	if t, ok := r.Context().Value(ctxKey{}).(*Tenant); ok {
		return *t, true
	}
	return Tenant{}, false
}

// adminPrefix is the path prefix whose mutating operations require an
// admin tenant.
const adminPrefix = "/cluster/"

// maxNonces caps one tenant's live replay-window entries; a nonce stays
// rejected for 2×MaxSkew, the widest interval a timestamp inside the skew
// bound could be replayed over.
const maxNonces = 1 << 16

// MaxBody caps a request body, and with it what a request can make the
// server allocate unauthenticated. The largest legitimate body, an /infer
// for GRU h=1024 T=1500 (Table 4's largest layer), is 1.54 M numbers × ≤ 25
// bytes ≈ 38 MB.
const MaxBody = 64 << 20

// ErrBodyTooLarge refuses a body over MaxBody, or a Content-Length
// claiming one; servers answer it with 413.
var ErrBodyTooLarge = errors.New("request body exceeds 64 MiB")

// Body is a request body read whole into a pooled buffer. It is also an
// io.ReadCloser, so the guard hands it on as the request's body, carrying
// the tenant it verified.
type Body struct {
	bytes.Buffer
	lim  io.LimitedReader
	lent bool    // handed on by a guard, which frees it after the handler
	who  *Tenant // the verified caller, set by the guard while lent
}

// Close does nothing; FreeBody is what returns the buffer.
func (*Body) Close() error { return nil }

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// ReadBody reads r's body into a pooled buffer presized from
// Content-Length, which is untrusted: a claim over MaxBody is refused before
// anything is allocated. A warm pool holds buffers as large as the bodies
// before, so the read allocates nothing in proportion to the body.
// FreeBody returns the buffer. Behind a guard, ReadBody returns its Body.
func ReadBody(r *http.Request) (*Body, error) {
	if b, ok := r.Body.(*Body); ok && b.lent {
		return b, nil
	}
	if r.ContentLength > MaxBody {
		return nil, ErrBodyTooLarge
	}
	b := bodyPool.Get().(*Body)
	b.Reset()
	b.Grow(int(r.ContentLength) + bytes.MinRead) // so ReadFrom meets EOF without growing it
	b.lim = io.LimitedReader{R: r.Body, N: MaxBody + 1}
	_, err := b.ReadFrom(&b.lim)
	if err == nil && b.Len() > MaxBody {
		return nil, ErrBodyTooLarge // dropped, not pooled
	}
	if err != nil {
		FreeBody(b)
		return nil, err
	}
	return b, nil
}

// FreeBody returns a ReadBody buffer to the pool, unless a guard lent it.
func FreeBody(b *Body) {
	if !b.lent {
		bodyPool.Put(b)
	}
}

// GuardOptions tunes the authentication middleware.
type GuardOptions struct {
	// MaxSkew bounds |server time - request timestamp| (default 2m).
	MaxSkew time.Duration
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// Guard authenticates signed requests against a Registry and lends the
// handler the request's body, read once, carrying the verified tenant
// (FromRequest). Read-only requests (GET, HEAD) pass through
// unauthenticated — the mutating surface (/deploy, /release, /infer,
// /cluster/* ops) is what the signature protects.
type Guard struct {
	reg  *Registry
	opts GuardOptions

	mu     sync.Mutex
	nonces map[string]map[string]time.Time // tenant -> nonce -> expiry
}

// NewGuard builds the middleware over the registry.
func NewGuard(reg *Registry, opts GuardOptions) *Guard {
	if opts.MaxSkew <= 0 {
		opts.MaxSkew = 2 * time.Minute
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Guard{reg: reg, opts: opts, nonces: map[string]map[string]time.Time{}}
}

// reject answers an auth failure with a JSON error body and counts it
// against the claimed tenant id when that tenant is registered, otherwise
// against "unknown": the header is unauthenticated input, and each
// distinct key stays in the expvar maps for the life of the process.
func (g *Guard) reject(w http.ResponseWriter, code int, id, reason string) {
	if _, ok := g.reg.Lookup(id); !ok {
		id = "unknown"
	}
	metrics.TenantAuthFailures.Add(id, 1)
	metrics.TenantRejections.Add(id, 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": reason})
}

// Wrap returns next behind signed-request authentication. Responses:
//
//	401 — missing headers, unknown tenant, timestamp outside the skew
//	      window, replayed nonce, or signature mismatch
//	403 — authenticated non-admin tenant on an admin-only operation
//	413 — a body over MaxBody, refused before it is hashed
func (g *Guard) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		id := r.Header.Get(keyTenant)
		tsRaw := r.Header.Get(keyTimestamp)
		nonce := r.Header.Get(keyNonce)
		sig := r.Header.Get(keySignature)
		if id == "" || tsRaw == "" || nonce == "" || sig == "" {
			g.reject(w, http.StatusUnauthorized, id, "missing signed-request headers")
			return
		}
		t, ok := g.reg.entry(id)
		if !ok {
			g.reject(w, http.StatusUnauthorized, id, "unknown tenant")
			return
		}
		ts, err := strconv.ParseInt(tsRaw, 10, 64)
		if err != nil {
			g.reject(w, http.StatusUnauthorized, id, "malformed timestamp")
			return
		}
		now := g.opts.Now()
		if skew := now.Sub(time.Unix(ts, 0)); skew > g.opts.MaxSkew || skew < -g.opts.MaxSkew {
			g.reject(w, http.StatusUnauthorized, id, "timestamp outside allowed clock skew")
			return
		}
		// The body is capped before it is hashed: an oversized one costs at
		// most MaxBody of reading, and no hashing, to refuse.
		body, err := ReadBody(r)
		if errors.Is(err, ErrBodyTooLarge) {
			g.reject(w, http.StatusRequestEntityTooLarge, id, err.Error())
			return
		}
		if err != nil {
			g.reject(w, http.StatusUnauthorized, id, "unreadable body")
			return
		}
		// Lent, the handler's FreeBody leaves it to this one; r gets its own
		// body back, so nothing reads the pooled one or its tenant after.
		raw := r.Body
		body.lent = true
		defer func() { r.Body, body.lent, body.who = raw, false, nil; FreeBody(body) }()
		want := sign(t.Key, r.Method, r.URL.Path, body.Bytes(), ts, nonce)
		r.Body = body
		// Constant-time compare of fixed-length hex, so the comparison leaks
		// nothing about where a forgery diverges.
		var got [len(want)]byte
		copy(got[:], sig)
		if len(sig) != len(got) || !hmac.Equal(want[:], got[:]) {
			g.reject(w, http.StatusUnauthorized, id, "bad signature")
			return
		}
		if !g.admitNonce(id, nonce, now) {
			g.reject(w, http.StatusUnauthorized, id, "replayed nonce")
			return
		}
		if !t.Admin && strings.HasPrefix(r.URL.Path, adminPrefix) {
			g.reject(w, http.StatusForbidden, id, "admin tenant required")
			return
		}
		body.who = t
		next.ServeHTTP(w, r)
	})
}

// admitNonce records the nonce inside its replay window, rejecting
// repeats. Expired entries are pruned opportunistically; a tenant's
// window is additionally capped at maxNonces live entries, oldest-expiry
// pruned first (a full window rejects rather than forgets).
func (g *Guard) admitNonce(id, nonce string, now time.Time) bool {
	window := 2 * g.opts.MaxSkew
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := g.nonces[id]
	if seen == nil {
		seen = map[string]time.Time{}
		g.nonces[id] = seen
	}
	for n, exp := range seen {
		if now.After(exp) {
			delete(seen, n)
		}
	}
	if exp, dup := seen[nonce]; dup && !now.After(exp) {
		return false
	}
	if len(seen) >= maxNonces {
		return false
	}
	seen[nonce] = now.Add(window)
	return true
}
