// Package repl ships the live directory's WAL between processes: a
// leader serves its log and snapshot over HTTP, followers bootstrap
// from the snapshot, tail the log with retry backoff, and apply each
// record through the same batch pipeline recovery uses.
//
// The protocol is deliberately the on-disk format. A replication
// response body is a concatenation of WAL frames exactly as Append
// wrote them (uvarint payload length, CRC-32C, gob payload), and a
// follower appends the raw frame bytes to its own WAL verbatim before
// applying the record. A follower's WAL is therefore a byte-identical
// prefix copy of its leader's, which reduces the whole correctness
// argument to one already-pinned fact: WAL replay is deterministic. A
// follower tailed to epoch E and a leader recovered at epoch E ran the
// same computation on the same bytes.
//
// Positions are record offsets, and epochs advance one per applied
// record, so "lag in records" and "lag in epochs" are the same number;
// the exported gauges use the epoch name because that is the unit the
// serving layer reasons in.
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"cafc/internal/obs"
	"cafc/internal/stream"
)

// Source is where a follower pulls WAL frames from: Frames returns the
// intact frames at record offsets >= from plus the source's total
// intact record count (the follower's lag target). A short read — fewer
// frames than total-from — is fine; the next call resumes where the
// local WAL ends.
type Source interface {
	Frames(ctx context.Context, from int64) ([]stream.Frame, int64, error)
}

// SnapshotSource is the optional bootstrap capability of a Source: a
// reader of the leader's current corpus snapshot in the public v2
// format. stream.ErrNoSnapshot when the leader has none yet.
type SnapshotSource interface {
	Snapshot(ctx context.Context) (io.ReadCloser, error)
}

// DirSource serves frames and snapshots straight from a WAL directory
// on the local filesystem — the in-process source used by tests and
// single-machine benches, and the leader's own backing for Server.
type DirSource struct{ Dir string }

// Frames implements Source.
func (s DirSource) Frames(_ context.Context, from int64) ([]stream.Frame, int64, error) {
	return stream.TailWAL(s.Dir, from)
}

// Snapshot implements SnapshotSource.
func (s DirSource) Snapshot(context.Context) (io.ReadCloser, error) {
	return stream.OpenSnapshotAt(s.Dir)
}

// Server exposes a leader's WAL and snapshot over HTTP:
//
//	GET /repl/wal?from=N   -> raw WAL frames from record offset N,
//	                          X-Repl-Total: leader's total record count
//	GET /repl/snapshot     -> current snapshot, verbatim (404 when none)
//	GET /repl/status       -> {"records": N} JSON
//
// It reads the directory directly (stream.TailWAL), so it works against
// a store another goroutine is appending to: the scan stops at the last
// intact frame, i.e. the durable prefix.
type Server struct {
	// Dir is the leader's state directory.
	Dir string
	// Metrics receives request/frame counters. Nil disables.
	Metrics *obs.Registry
	// MaxFrames caps frames per /repl/wal response (0 = 4096) so one
	// cold follower cannot make the leader buffer its entire history in
	// memory at once; followers loop until caught up.
	MaxFrames int
}

// TotalHeader carries the source's total intact record count on
// /repl/wal responses.
const TotalHeader = "X-Repl-Total"

func (s *Server) maxFrames() int {
	if s.MaxFrames <= 0 {
		return 4096
	}
	return s.MaxFrames
}

// Register mounts the replication endpoints on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/repl/wal", s.handleWAL)
	mux.HandleFunc("/repl/snapshot", s.handleSnapshot)
	mux.HandleFunc("/repl/status", s.handleStatus)
}

func (s *Server) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	from := int64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "bad from offset", http.StatusBadRequest)
			return
		}
		from = v
	}
	frames, total, err := stream.TailWAL(s.Dir, from)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if max := s.maxFrames(); len(frames) > max {
		frames = frames[:max]
	}
	s.Metrics.Counter("replication_serve_requests_total").Inc()
	s.Metrics.Counter("replication_serve_frames_total").Add(int64(len(frames)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(TotalHeader, strconv.FormatInt(total, 10))
	for _, f := range frames {
		if _, err := w.Write(f.Raw); err != nil {
			return // client went away mid-stream; it will re-fetch from its offset
		}
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	rc, err := stream.OpenSnapshotAt(s.Dir)
	if errors.Is(err, stream.ErrNoSnapshot) {
		http.Error(w, "no snapshot", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer rc.Close()
	s.Metrics.Counter("replication_serve_snapshots_total").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, rc)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	_, total, err := stream.TailWAL(s.Dir, 1<<62)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Records int64 `json:"records"`
	}{total})
}

// Client pulls frames and snapshots from a Server — the follower's
// remote Source.
type Client struct {
	// Base is the leader's base URL, e.g. "http://10.0.0.1:8080".
	Base string
	// HTTP is the client to use (nil = http.DefaultClient).
	HTTP *http.Client
}

func (c *Client) httpc() *http.Client {
	if c.HTTP == nil {
		return http.DefaultClient
	}
	return c.HTTP
}

// Frames implements Source over HTTP. A response body with a torn tail
// (proxy truncation, leader dying mid-write) yields just the intact
// prefix — the follower appends what survived and re-fetches the rest.
func (c *Client) Frames(ctx context.Context, from int64) ([]stream.Frame, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/repl/wal?from=%d", c.Base, from), nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("repl: fetch frames: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("repl: fetch frames: leader returned %s", resp.Status)
	}
	total, err := strconv.ParseInt(resp.Header.Get(TotalHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("repl: fetch frames: bad %s header", TotalHeader)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil && len(body) == 0 {
		return nil, 0, fmt.Errorf("repl: fetch frames: %w", err)
	}
	return stream.DecodeFrames(body), total, nil
}

// Snapshot implements SnapshotSource over HTTP.
func (c *Client) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/repl/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, fmt.Errorf("repl: fetch snapshot: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound {
		resp.Body.Close()
		return nil, stream.ErrNoSnapshot
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("repl: fetch snapshot: leader returned %s", resp.Status)
	}
	return resp.Body, nil
}

// Bootstrap populates an empty follower state dir from src: the
// leader's current snapshot (when src can ship one and has one) plus a
// verbatim copy of every WAL frame from record 0 — after which the
// ordinary recovery machinery brings the follower to the leader's
// durable state without replaying the snapshotted prefix's compute. A
// dir that already holds state is left untouched: the follower resumes
// from its local WAL and only tails the delta.
func Bootstrap(ctx context.Context, src Source, dir string) error {
	if stream.HasState(dir) {
		return nil
	}
	st, err := stream.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	if ss, ok := src.(SnapshotSource); ok {
		rc, err := ss.Snapshot(ctx)
		switch {
		case err == nil:
			werr := st.WriteSnapshot(func(w io.Writer) error {
				_, err := io.Copy(w, rc)
				return err
			})
			rc.Close()
			if werr != nil {
				return werr
			}
		case errors.Is(err, stream.ErrNoSnapshot):
			// Cold leader: the WAL alone is the full history.
		default:
			return err
		}
	}
	for {
		frames, total, err := src.Frames(ctx, st.RecordCount())
		if err != nil {
			return err
		}
		if len(frames) == 0 {
			if st.RecordCount() < total {
				return fmt.Errorf("repl: bootstrap stalled at %d/%d records", st.RecordCount(), total)
			}
			return nil
		}
		for _, f := range frames {
			if err := st.AppendFrame(f); err != nil {
				return err
			}
		}
	}
}
