package main

// Example pins the program's output.
func Example() {
	main()
	// Output:
	// === Figure 5: three representative selection witnesses ===
	// --- witness with $4 = <article>[5.6] ---
	// article[5.60]
	//   author
	//     sname
	// --- witness with $4 = <section>[3.6] ---
	// article[3.60]
	//   author
	//     sname
	//   section[3.60]
	// --- witness with $4 = <p>[0.8] ---
	// article[0.80]
	//   author
	//     sname
	//   p[0.80]
	// === Figure 6: projection with PL = {$1, $3, $4} ===
	// article[5.60]
	//   article-title[0.60]
	//   sname
	//   chapter[5.00]
	//     section[0.80]
	//       section-title[0.80]
	//     section[0.60]
	//       section-title[0.60]
	//     section[3.60]
	//       p[0.80]
	//       p[1.40]
	//       p[1.40]
	//
	// === Figure 8: projection followed by Pick ===
	// article[5.00]
	//   sname
	//   chapter[5.00]
	//     section-title[0.80]
	//     p[0.80]
	//     p[1.40]
	//     p[1.40]
	//
	// === Figure 7: one result of the Query 3 join ===
	// tix_prod_root[2.80]
	//   article[0.80]
	//     article-title
	//     author
	//       sname
	//     p[0.80]
	//   review
	//     title
}
