package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// 5 joined result(s), best first:
	//
	// #1 combined=7.00 (component=5.00, title-sim=2)
	//    review: "Internet Technologies"
	//    component <chapter>:
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
	// #2 combined=3.40 (component=1.40, title-sim=2)
	//    review: "Internet Technologies"
	//    component <p>:
	//    search engine NewsInEssence uses a new information retrieval technology
	//
	// #3 combined=3.40 (component=1.40, title-sim=2)
	//    review: "Internet Technologies"
	//    component <p>:
	//    semantic information retrieval techniques are also being incorporated into some search engines
	//
	// #4 combined=2.80 (component=0.80, title-sim=2)
	//    review: "Internet Technologies"
	//    component <section-title>:
	// <section-title>
	//   Search Engine Basics
	// </section-title>
	//
	// #5 combined=2.80 (component=0.80, title-sim=2)
	//    review: "Internet Technologies"
	//    component <p>:
	//    Here are some IR based search engines:
}
