package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pacram/internal/runner"
	"pacram/internal/telemetry"
)

// Client talks to a pacramd server. The zero value is not usable;
// construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient points a client at a server base URL (e.g.
// "http://localhost:8793"). The client polls and streams with no
// overall deadline — sweeps legitimately run for minutes — but every
// individual request uses the transport's defaults.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// apiError lifts a non-2xx response into an error carrying the
// server's message verbatim, so remote failures read like local ones.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e Error
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s", e.Error)
	}
	return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(body))
}

// getJSON fetches path into out.
func (c *Client) getJSON(path string, out any) error {
	return c.getJSONCtx(context.Background(), path, out)
}

// getJSONCtx fetches path into out, abandoning the request when ctx
// is cancelled.
func (c *Client) getJSONCtx(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("contacting %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts v to path and decodes the response into out when the
// status matches want.
func (c *Client) postJSON(path string, v any, want int, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("contacting %s: %w", c.base, err)
	}
	if resp.StatusCode != want {
		return apiError(resp)
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks the server is reachable.
func (c *Client) Health() error {
	var out struct {
		Status string `json:"status"`
	}
	return c.getJSON(pathHealth, &out)
}

// Catalog lists the server's built-in scenarios.
func (c *Client) Catalog() ([]CatalogEntry, error) {
	var out []CatalogEntry
	err := c.getJSON(pathCatalog, &out)
	return out, err
}

// MetricDocs returns the server's metric reference lines — the exact
// lines `scenario metrics` prints locally.
func (c *Client) MetricDocs() ([]string, error) {
	var out []string
	err := c.getJSON(pathMetricDocs, &out)
	return out, err
}

// Metrics fetches the server's telemetry registry as a JSON snapshot
// (the same series /metrics serves in Prometheus text form).
func (c *Client) Metrics() ([]telemetry.FamilySnapshot, error) {
	var out []telemetry.FamilySnapshot
	err := c.getJSON(pathMetrics, &out)
	return out, err
}

// StoreStats fetches the server's live result-store tier counters:
// one entry per tier in stack order, the stack aggregate last.
func (c *Client) StoreStats() ([]runner.TierStats, error) {
	var out []runner.TierStats
	err := c.getJSON(pathStoreStats, &out)
	return out, err
}

// Workers lists the coordinator's registered fleet workers.
func (c *Client) Workers() ([]WorkerStatus, error) {
	var out []WorkerStatus
	err := c.getJSON(pathFabricWorkers, &out)
	return out, err
}

// Validate asks the server to fully resolve a scenario without
// running it. A validation failure comes back as an error carrying
// the server's message (the same message local validation produces).
func (c *Client) Validate(req SubmitRequest) (*ValidateResponse, error) {
	var out ValidateResponse
	if err := c.postJSON(pathValidate, req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Submit enqueues a scenario for execution and returns its initial
// status.
func (c *Client) Submit(req SubmitRequest) (*JobStatus, error) {
	var out JobStatus
	if err := c.postJSON(pathJobs, req, http.StatusAccepted, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists all submissions in submission order.
func (c *Client) Jobs() ([]JobStatus, error) {
	var out []JobStatus
	err := c.getJSON(pathJobs, &out)
	return out, err
}

// Status fetches one job's current state.
func (c *Client) Status(id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.getJSON(pathJobs+"/"+id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Watch follows a job's SSE stream, invoking onCell per cell event,
// until the job reaches a terminal state (returned) or ctx is
// cancelled. If the stream drops mid-job it falls back to polling:
// progress granularity degrades, the outcome does not.
func (c *Client) Watch(ctx context.Context, id string, onCell func(CellEvent)) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+pathJobs+"/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.poll(ctx, id)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}

	// The scanner grows its buffer only as far as the longest line
	// needs; cell frames are a few hundred bytes, the done event more.
	var event []byte
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(nil, 1<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		if name, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = append(event[:0], name...)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		switch string(event) {
		case "cell":
			if onCell == nil {
				continue
			}
			if ev, err := decodeCellEvent(data); err == nil {
				onCell(ev)
			}
		case "done":
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return nil, fmt.Errorf("decoding terminal event: %w", err)
			}
			return &st, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Stream ended without a terminal event; the job is still the
	// source of truth.
	return c.poll(ctx, id)
}

// poll falls back to periodic status checks until terminal; each
// request carries ctx so cancellation interrupts an in-flight poll,
// not just the sleep between polls.
func (c *Client) poll(ctx context.Context, id string) (*JobStatus, error) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		var st JobStatus
		if err := c.getJSONCtx(ctx, pathJobs+"/"+id, &st); err != nil {
			return nil, err
		}
		if st.State != StateRunning {
			return &st, nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fetchRaw returns an artifact's exact bytes.
func (c *Client) fetchRaw(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, fmt.Errorf("contacting %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Table returns the finished job's aligned-text table — byte-identical
// to the table a local run prints.
func (c *Client) Table(id string) ([]byte, error) {
	return c.fetchRaw(pathJobs + "/" + id + "/table")
}

// CSV returns the finished job's CSV rendering — byte-identical to
// the CLI's -csv output.
func (c *Client) CSV(id string) ([]byte, error) {
	return c.fetchRaw(pathJobs + "/" + id + "/csv")
}
