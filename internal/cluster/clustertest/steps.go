package clustertest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/promtext"
	"repro/internal/telemetry"
)

const (
	// waitBudget bounds every Await; jobWait bounds one job in AwaitDone.
	waitBudget = 30 * time.Second
	jobWait    = 2 * time.Minute
)

// Steps drives splash4d over HTTP. Each step records the first failure and
// is a no-op after it, so a scenario reads as a script and checks Err once.
// The cluster scenarios and the single-node serve smoke both run on it.
type Steps struct {
	err      error
	admitted []string
}

// Err returns the first failure.
func (s *Steps) Err() error { return s.err }

// Failf records a failure unless one is already recorded.
func (s *Steps) Failf(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// Check records a failure when ok is false.
func (s *Steps) Check(ok bool, format string, args ...any) {
	if !ok {
		s.Failf(format, args...)
	}
}

// Await polls cond every 10ms until it holds, failing with what once the
// wait budget runs out or a step inside cond fails.
func (s *Steps) Await(what string, cond func() bool) { s.await(what, waitBudget, cond) }

func (s *Steps) await(what string, budget time.Duration, cond func() bool) {
	deadline := time.Now().Add(budget)
	for s.err == nil && !cond() {
		if time.Now().After(deadline) {
			s.Failf("%s: not reached within %v", what, budget)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Get fetches url and insists on 200.
func (s *Steps) Get(url string) []byte {
	status, body := s.do(http.MethodGet, url, "")
	s.Check(s.err != nil || status == http.StatusOK, "GET %s = %d: %s", url, status, body)
	return body
}

// GetJSON fetches url, insists on 200, and decodes the body into v.
func (s *Steps) GetJSON(url string, v any) {
	if body := s.Get(url); s.err == nil {
		if err := json.Unmarshal(body, v); err != nil {
			s.Failf("GET %s: %v", url, err)
		}
	}
}

// do sends one request (a JSON body when body is set, plus the header
// pairs) and returns the status and response body.
func (s *Steps) do(method, url, body string, header ...string) (int, []byte) {
	if s.err != nil {
		return 0, nil
	}
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		s.Failf("%s %s: %v", method, url, err)
		return 0, nil
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.Failf("%s %s: %v", method, url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		s.Failf("%s %s: %v", method, url, err)
	}
	return resp.StatusCode, raw
}

// Admit posts one job spec to base's POST /runs with the given header
// pairs and returns the job ID. It requires a fresh admission (202), or
// with dedupOK a singleflight answer (200) too. Fresh admissions are
// recorded, so a scenario can audit them at the end.
func (s *Steps) Admit(base, spec string, dedupOK bool, header ...string) string {
	status, raw := s.do(http.MethodPost, base+"/runs", spec, header...)
	var view struct{ ID string }
	err := json.Unmarshal(raw, &view)
	s.Check((status == http.StatusAccepted || dedupOK && status == http.StatusOK) && err == nil && view.ID != "",
		"POST %s/runs = %d: %s", base, status, raw)
	if s.err == nil && status == http.StatusAccepted {
		s.admitted = append(s.admitted, view.ID)
	}
	return view.ID
}

// AwaitDone polls each job at base until it is done. An error state or a
// job outliving its wait is a lost job.
func (s *Steps) AwaitDone(base string, ids ...string) {
	for _, id := range ids {
		s.await("job "+id+" done", jobWait, func() bool {
			var view struct{ Status, Error string }
			s.GetJSON(base+"/runs/"+id, &view)
			s.Check(view.Status != "error", "job %s failed: %s", id, view.Error)
			return view.Status == "done"
		})
	}
}

// Metrics scrapes and parses base's /metrics; nil after a failure.
func (s *Steps) Metrics(base string) *promtext.Metrics {
	body := s.Get(base + "/metrics")
	if s.err != nil {
		return nil
	}
	m, err := promtext.Parse(string(body))
	if err != nil {
		s.Failf("%s/metrics: %v", base, err)
	}
	return m
}

// LintMetrics requires base's /metrics to parse and lint clean. Run it on a
// quiet node: a scrape racing job completions may catch a histogram
// mid-update.
func (s *Steps) LintMetrics(base string) {
	if m := s.Metrics(base); m != nil {
		problems := promtext.Lint(m)
		s.Check(len(problems) == 0, "%s/metrics lint:\n  %s", base, strings.Join(problems, "\n  "))
	}
}

// Metric scrapes one series from base: the sum over the samples of name
// carrying the given label pairs ("peer", "a"), so with no pairs the sum
// over every sample of name. A series base does not expose is a failure.
func (s *Steps) Metric(base, name string, labels ...string) float64 {
	m := s.Metrics(base)
	if m == nil {
		return 0
	}
	var sum float64
	found := false
	if fam := m.Families[name]; fam != nil {
		for _, sample := range fam.Samples {
			match := sample.Name == name
			for i := 0; match && i+1 < len(labels); i += 2 {
				match = sample.Label(labels[i]) == labels[i+1]
			}
			if match {
				sum, found = sum+sample.Value, true
			}
		}
	}
	s.Check(found, "%s exposes no %s%v", base, name, labels)
	return sum
}

func eq(want float64) func(float64) bool      { return func(v float64) bool { return v == want } }
func atLeast(want float64) func(float64) bool { return func(v float64) bool { return v >= want } }

// AccessLine is one parsed line of a splash4d JSONL access log.
type AccessLine struct {
	Kind      string           `json:"kind"`
	RequestID string           `json:"request_id"`
	Node      string           `json:"node"`
	RanOn     string           `json:"ran_on"`
	Spans     []telemetry.Span `json:"spans"`
}

// AccessLog reads the access log at path; flush it first.
func (s *Steps) AccessLog(path string) []AccessLine {
	data, err := os.ReadFile(path)
	if s.err != nil || err != nil {
		s.Failf("access log: %v", err)
		return nil
	}
	var out []AccessLine
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var l AccessLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			s.Failf("access log line %q: %v", line, err)
		}
		out = append(out, l)
	}
	return out
}

// WriteReport writes v to path as indented JSON, the form of the gates'
// BENCH_*.json artifacts.
func WriteReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
