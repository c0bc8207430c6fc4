// Keyword search: bare keywords instead of a structured query document.
// The front end tokenizes the input (fusing multi-word names), maps each
// keyword to graph elements through the normalized-name, prefix and
// initials indexes, assembles scored candidate query graphs, executes
// the best candidates concurrently through the serving layer, and blends
// the per-candidate top-k into one entity-deduplicated ranking. The same
// front end answers autocomplete straight from the indexes.
//
// Run with: go run ./examples/keyword
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"semkg"
	"semkg/internal/datagen"
)

func main() {
	ctx := context.Background()
	// Zipf naming gives the world realistic multi-word entity names —
	// the input the keyword tokenizer and the prefix/initials indexes
	// are built for.
	profile := datagen.DBpediaLike(0.4)
	profile.NameStyle = datagen.NameStyleZipf
	ds := datagen.Generate(profile)
	model, err := semkg.Train(ctx, ds.Graph, semkg.TrainConfig{Dim: 48, Epochs: 120, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := semkg.NewEngine(ds.Graph, model, ds.Library)
	if err != nil {
		log.Fatal(err)
	}
	front := semkg.NewKeywordFrontend(semkg.NewServing(eng, semkg.ServeConfig{}))

	// Derive a keyword input from the first generated benchmark query:
	// the focus type, the predicate, and the anchor entity's name —
	// exactly what a person would type into a search box.
	gq := ds.Simple[0]
	var input, anchor string
	for _, n := range gq.Graph.Nodes {
		if n.Name != "" {
			anchor = n.Name
			input = fmt.Sprintf("%s %s %s", gq.Graph.Nodes[0].Type, gq.Graph.Edges[0].Predicate, n.Name)
		}
	}

	// Autocomplete first: complete a truncated entity fragment from the
	// indexes alone — no search runs.
	frag := anchor[:len(anchor)-3]
	sug := front.Suggest(frag, 3)
	fmt.Printf("suggest %q:\n", frag)
	for _, s := range sug.Items {
		fmt.Printf("  %-30s %-9s via %-8s (count %d)\n", s.Text, s.Kind, s.Via, s.Count)
	}

	// Full keyword search: assemble, execute, blend.
	resp, err := front.Search(ctx, input, semkg.Options{K: 10, Tau: 0.7}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nkeywords %q → %d candidate(s), %d executed, in %s\n",
		input, len(resp.Assembly.Candidates), resp.Executed, resp.Elapsed.Round(time.Microsecond))
	for i, c := range resp.Assembly.Candidates {
		if i >= resp.Executed {
			break
		}
		fmt.Printf("  c%d score=%.3f  %s\n", i, c.Score, c.Explain)
	}
	fmt.Println()
	for i, a := range resp.Answers {
		if i >= 5 {
			fmt.Printf("    ... %d more\n", len(resp.Answers)-i)
			break
		}
		fmt.Printf("%2d. %-30s blended=%.3f (candidate %d)\n", i+1, a.Entity, a.Blended, a.Candidate)
	}

	fmt.Println("\nEvery answer names the candidate query that produced it; replay that")
	fmt.Println("candidate as a structured query to get the identical un-blended ranking.")
}
