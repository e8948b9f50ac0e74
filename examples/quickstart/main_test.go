package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// loaded 1 document(s): 32 nodes, 31 distinct terms
	//
	// top 3 component(s):
	//
	// #1 <chapter> score=5.00
	// <chapter>
	//   <ct>
	//     Search and Retrieval
	//   </ct>
	//   <section>
	//     <section-title>
	//       Search Engine Basics
	//     </section-title>
	//   </section>
	//   <section>
	//     <section-title>
	//       Information Retrieval Techniques
	//     </section-title>
	//   </section>
	//   <section>
	//     <section-title>
	//       Examples
	//     </section-title>
	//     <p>
	//       Here are some IR based search engines:
	//     </p>
	//     <p>
	//       search engine NewsInEssence uses a new information retrieval technology
	//     </p>
	//     <p>
	//       semantic information retrieval techniques are also being incorporated into some search engines
	//     </p>
	//   </section>
	// </chapter>
	//
	// #2 <p> score=1.40
	// <p>
	//   search engine NewsInEssence uses a new information retrieval technology
	// </p>
	//
	// #3 <p> score=1.40
	// <p>
	//   semantic information retrieval techniques are also being incorporated into some search engines
	// </p>
}
