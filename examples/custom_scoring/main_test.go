package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// weighted-sum:  <article>=7.800  <chapter>=7.200  <section>=4.800
	// tf-idf      :  <article>=9.066  <chapter>=6.501  <section>=5.478
	// conditional :  <article>=7.800  <chapter>=7.200  <section>=4.800
	// normalized  :  <article>=0.722  <chapter>=0.706  <section>=0.615
	//
	// ScoreSim(identical) = 2   CosineSim(identical) = 1.00
	// ScoreSim(partial)   = 1   CosineSim(partial)   = 0.32
	//
	// count-same grows with shared words; cosine also discounts length,
	// so the partial match scores much lower under cosine.
}
