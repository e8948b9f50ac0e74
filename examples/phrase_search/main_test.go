package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// corpus: 12364 nodes, vector=200 space=150 occurrences
	// PhraseFinder: 80 occurrences of "vector space"
	// Comp3:        80 occurrences, store traffic: nodes=166 pages=52 texts=83 nav=0
	//
	// top elements by phrase count:
	//  1. <corpus> ord=0 phrase-count=80
	//  2. <article> ord=558 phrase-count=3
	//  3. <article> ord=2855 phrase-count=3
	//  4. <bdy> ord=2872 phrase-count=3
	//  5. <article> ord=6133 phrase-count=3
}
