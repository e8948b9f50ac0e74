package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// 1815 elements carry relevance across granularities:
	//   <abs>: 29 scored elements
	//   <article>: 189 scored elements
	//   <bdy>: 189 scored elements
	//   <corpus>: 1 scored elements
	//   <fm>: 29 scored elements
	//   <p>: 649 scored elements
	//   <sec>: 428 scored elements
	//   <ss1>: 301 scored elements
	//
	// histogram: top 5% of 1815 scores ⇒ relevance threshold 0.60 (≈1815 nodes)
	//
	// Pick returns 822 irredundant components (from 1815 scored elements):
	//   <bdy>: 189 picked
	//   <corpus>: 1 picked
	//   <fm>: 29 picked
	//   <p>: 302 picked
	//   <ss1>: 301 picked
	//
	// parent/child redundancy violations: 0
}
