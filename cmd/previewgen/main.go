// Command previewgen discovers and renders an optimal preview for an
// entity graph.
//
// Input is one of:
//
//	-triples file.eg     the line-oriented text triple format
//	-ntriples file.nt    an N-Triples subset (literals dropped)
//	-snapshot file.egpt  a binary snapshot
//	-domain music        a synthetic Freebase-like domain
//
// Example:
//
//	previewgen -domain film -k 5 -n 10 -mode tight -d 2 -tuples 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	previewtables "github.com/uta-db/previewtables"
	"github.com/uta-db/previewtables/internal/freebase"
	"github.com/uta-db/previewtables/internal/score"
)

func main() {
	triplesPath := flag.String("triples", "", "input entity graph in text triple format")
	ntriplesPath := flag.String("ntriples", "", "input entity graph in N-Triples format")
	snapshotPath := flag.String("snapshot", "", "input entity graph snapshot")
	domain := flag.String("domain", "", "generate a synthetic domain: "+strings.Join(freebase.Domains(), ", "))
	scale := flag.Float64("scale", 0, "synthetic generation scale (0 = default)")

	k := flag.Int("k", 3, "number of preview tables")
	n := flag.Int("n", 9, "maximum total non-key attributes")
	mode := flag.String("mode", "concise", "preview space: concise, tight or diverse")
	d := flag.Int("d", 2, "distance bound for tight/diverse previews")
	keyMeasure := flag.String("key", "coverage", "key attribute measure: coverage or walk (also random-walk)")
	nonKeyMeasure := flag.String("nonkey", "coverage", "non-key attribute measure: coverage or entropy")
	tuples := flag.Int("tuples", 4, "sample tuples per table (0 = schema only)")
	markdown := flag.Bool("markdown", false, "render Markdown instead of text")
	dot := flag.Bool("dot", false, "emit Graphviz DOT of the schema with the preview highlighted")
	suggest := flag.Bool("suggest", false, "print suggested (k, n) and distance bounds and exit")
	flag.Parse()

	km, err := score.ParseKeyMeasure(*keyMeasure)
	if err != nil {
		fatal(fmt.Errorf("-key: %w", err))
	}
	nm, err := score.ParseNonKeyMeasure(*nonKeyMeasure)
	if err != nil {
		fatal(fmt.Errorf("-nonkey: %w", err))
	}

	g, err := loadGraph(*triplesPath, *ntriplesPath, *snapshotPath, *domain, *scale)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded entity graph: %s\n", g.Stats())

	disc := previewtables.NewDiscoverer(g, km, nm)

	if *suggest {
		c := disc.SuggestSize(4 * (*k + *n))
		sug := disc.SuggestDistance()
		fmt.Printf("suggested size: k=%d n=%d\n", c.K, c.N)
		fmt.Printf("suggested distance: tight d=%d, diverse d=%d (preferred: %s)\n",
			sug.TightD, sug.DiverseD, sug.Preferred)
		return
	}

	c := previewtables.Constraint{K: *k, N: *n, D: *d}
	switch *mode {
	case "concise":
		c.Mode = previewtables.Concise
	case "tight":
		c.Mode = previewtables.Tight
	case "diverse":
		c.Mode = previewtables.Diverse
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	p, err := disc.Discover(c)
	if err != nil {
		fatal(err)
	}

	switch {
	case *dot:
		err = previewtables.PreviewDOT(os.Stdout, g.Schema(), &p)
	case *markdown:
		err = previewtables.RenderMarkdownPreview(os.Stdout, g, &p, *tuples)
	default:
		err = previewtables.Render(os.Stdout, g, &p, *tuples)
	}
	if err != nil {
		fatal(err)
	}
}

func loadGraph(triples, ntriples, snapshot, domain string, scale float64) (*previewtables.EntityGraph, error) {
	switch {
	case triples != "":
		f, err := os.Open(triples)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return previewtables.ReadTriples(f)
	case ntriples != "":
		f, err := os.Open(ntriples)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return previewtables.ReadNTriples(f, previewtables.NTriplesOptions{DropLiterals: true})
	case snapshot != "":
		return previewtables.LoadSnapshot(snapshot)
	case domain != "":
		opts := freebase.DefaultGenOptions()
		if scale > 0 {
			opts.Scale = scale
		}
		return freebase.Generate(domain, opts)
	default:
		return nil, fmt.Errorf("no input: pass -triples, -ntriples, -snapshot or -domain")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "previewgen: %v\n", err)
	os.Exit(1)
}
