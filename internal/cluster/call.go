package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster/peernet"
)

// The composed peer-call path. Every peer exchange goes through call(),
// which is exactly one attempt: breaker admission (an open breaker refuses
// without touching the network), one transport round trip, and breaker
// outcome recording. Nothing here retries; each caller owns its failure
// policy:
//
//   - health, journal: the prober and the shipper simply try again on
//     their next tick, and repair drains whatever backlog that leaves;
//   - steal: a failed donation round trip is dropped (the stealer asks
//     again next tick, and an undelivered donation is the victim's
//     reclaim deadline's problem);
//   - complete: a failed completion is never resent blind; the thief
//     first re-probes whether the victim still awaits the result and
//     resends once (see runStolen) — the only retry in the package;
//   - forward: a failed hop falls back to local admission.

// errBreakerOpen is returned without a network attempt while a peer's
// breaker refuses exchanges.
var errBreakerOpen = errors.New("cluster: peer breaker is open")

// call performs one peer exchange through the breaker. Health probes
// bypass breaker admission and recording: they are the liveness oracle the
// rest of the layer keys off, and must keep flowing while everything else
// is refused. The read endpoints (health, journal, stolen-probe) come back
// with fully buffered bodies; the others stream.
func (c *Cluster) call(ctx context.Context, p *peer, endpoint, method, path string, hdr http.Header, body []byte) (*peernet.PeerResponse, error) {
	gated := endpoint != peernet.EndpointHealth
	if gated && !p.brk.admit(time.Now()) {
		return nil, errBreakerOpen
	}
	resp, err := c.transport.RoundTrip(ctx, &peernet.PeerCall{
		Peer: p.id, Endpoint: endpoint, Method: method,
		URL: p.base + path, Header: hdr, Body: body,
	})
	switch endpoint {
	case peernet.EndpointHealth, peernet.EndpointJournal, peernet.EndpointStolenQ:
		resp, err = bufferResponse(resp, err)
	}
	if gated {
		p.brk.record(time.Now(), err != nil || resp.Status >= http.StatusInternalServerError)
	}
	return resp, err
}

// bufferedBodyCap bounds one buffered peer response body; journal chunks
// (the largest peer payloads) stay well under it.
const bufferedBodyCap = 1 << 20

// bufferResponse drains a response body into memory and rewraps it. A read
// failure mid-body (a torn connection) is reported as a transport error,
// so the breaker counts it.
func bufferResponse(resp *peernet.PeerResponse, err error) (*peernet.PeerResponse, error) {
	if err != nil || resp == nil {
		return resp, err
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, bufferedBodyCap))
	_ = resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}
