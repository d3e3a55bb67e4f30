package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphio/internal/graphiod"
)

// Jobs that end in the same poll round print in -id order, not in the
// order a map happens to yield them.
func TestWaitPrintsJobsInIDOrder(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		resp := graphiod.SubmitResponse{JobInfo: graphiod.JobInfo{ID: id, Key: "k-" + id, Status: graphiod.StateDone}}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			t.Error(err)
		}
	}))
	defer hs.Close()
	want := "id=j000002 key=k-j000002 status=done cached=false\n" +
		"id=j000000 key=k-j000000 status=done cached=false\n" +
		"id=j000001 key=k-j000001 status=done cached=false\n"
	// A map of three holds them in one of three rotations, so a few rounds
	// tell an ordered loop from a map's.
	for round := 0; round < 8; round++ {
		var out strings.Builder
		if code := cmdWait([]string{"-server", hs.URL, "-id", "j000002,j000000,j000001", "-poll", "1ms"}, &out); code != 0 {
			t.Fatalf("wait exited %d", code)
		}
		if out.String() != want {
			t.Fatalf("round %d: wait printed\n%swant\n%s", round, out.String(), want)
		}
	}
}
