// Batch mode: -batchfile answers a whole group of query graphs in one
// call. The file is the api.BatchRequest wire document — the identical
// body POST /v1/batch accepts — so a batch debugged locally replays
// against a server unchanged. Queries without their own options inherit
// the document's shared options; when the document carries none, the
// command-line flags (-k, -tau, -nhat, -bound) fill in.
//
//	kgsearch -graph g.tsv -model m.bin -batchfile b.json
//	kgsearch -server http://localhost:8375 -batchfile b.json

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"semkg/internal/api"
	"semkg/internal/core"
	"semkg/internal/serve"
)

// loadBatch reads and resolves a batch request file: the strict wire
// decode, then the flag-options fallback when the document has no shared
// options of its own.
func loadBatch(path string, opts core.Options) (api.BatchRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return api.BatchRequest{}, err
	}
	defer f.Close()
	req, err := api.DecodeBatchRequest(f)
	if err != nil {
		return api.BatchRequest{}, err
	}
	if req.Options == (api.Options{}) {
		req.Options = api.OptionsFrom(opts)
	}
	return req, nil
}

// localBatch answers the batch in process. The engine is wrapped in a
// single-replica serving layer so the group gets the real batch path —
// result caching and shared sub-query searches — not a loop of
// independent searches.
func localBatch(graphFile, modelFile, path string, opts core.Options) error {
	req, err := loadBatch(path, opts)
	if err != nil {
		return err
	}
	engine, err := localEngine(graphFile, modelFile)
	if err != nil {
		return err
	}
	layer := serve.New(engine, serve.Config{})
	items := make([]serve.BatchItem, len(req.Queries))
	for i := range req.Queries {
		items[i].Query, items[i].Opts = req.Item(i)
	}
	out := layer.SearchBatch(context.Background(), items)
	res := api.BatchResult{Results: make([]api.BatchItemResult, len(out))}
	for i, o := range out {
		item := api.BatchItemResult{Index: i, ID: req.Queries[i].ID}
		if o.Err != nil {
			item.Error = o.Err.Error()
		} else {
			r := api.ResultFrom(o.Result)
			item.Result = &r
		}
		res.Results[i] = item
	}
	printBatch(res)
	st := layer.Stats()
	fmt.Fprintf(os.Stderr, "· sub-searches: %d shared, %d run\n", st.SubHits, st.SubMisses)
	return nil
}

// remoteBatch posts the batch to semkgd's /v1/batch endpoint (buffered
// form) and prints the per-query outcomes. Sheds retry like
// remoteSearch; the whole batch retries, which is safe because a batch
// is read-only.
func remoteBatch(base, path string, opts core.Options, policy retryPolicy) error {
	req, err := loadBatch(path, opts)
	if err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if policy.notify == nil {
		policy.notify = func(attempt int, wait time.Duration, status string) {
			fmt.Fprintln(os.Stderr, describeShed(attempt, wait, status))
		}
	}
	resp, err := policy.do(func() (*http.Response, error) {
		return http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	res, err := api.DecodeBatchResult(data)
	if err != nil {
		return err
	}
	printBatch(res)
	return nil
}

// printBatch renders every query's outcome in request order, reusing the
// single-query result printer under a per-query header line.
func printBatch(res api.BatchResult) {
	for _, item := range res.Results {
		name := fmt.Sprintf("query %d", item.Index)
		if item.ID != "" {
			name = fmt.Sprintf("query %d (%s)", item.Index, item.ID)
		}
		if item.Error != "" {
			fmt.Printf("== %s: error: %s\n", name, item.Error)
			continue
		}
		fmt.Printf("== %s: ", name)
		printResult(*item.Result, 0)
	}
}
