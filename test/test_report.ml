open Helpers
module Table = Gridbw_report.Table
module Figure = Gridbw_report.Figure

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let render_aligns () =
  let t = Table.make ~headers:[ "name"; "value" ] [ [ "a"; "1" ]; [ "longer"; "22" ] ] in
  let rendered = Table.render t in
  Alcotest.(check bool) "has header" true (contains ~needle:"| name   | value |" rendered);
  Alcotest.(check bool) "has row" true (contains ~needle:"| longer | 22    |" rendered)

let short_rows_padded () =
  let t = Table.make ~headers:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0)

let long_rows_rejected () =
  match Table.make ~headers:[ "a" ] [ [ "1"; "2" ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-long row accepted"

let csv_quoting () =
  let t = Table.make ~headers:[ "k" ] [ [ "a,b" ]; [ "say \"hi\"" ] ] in
  let csv = Table.to_csv t in
  Alcotest.(check bool) "comma quoted" true (contains ~needle:"\"a,b\"" csv);
  Alcotest.(check bool) "quote doubled" true (contains ~needle:"\"say \"\"hi\"\"\"" csv)

let csv_plain () =
  let t = Table.make ~headers:[ "x"; "y" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "simple csv" "x,y\n1,2\n" (Table.to_csv t)

(* --- Figure --- *)

let fig () =
  Figure.make ~id:"figX" ~title:"test" ~x_label:"load" ~y_label:"accept"
    [
      Figure.series ~label:"s1" [ (1.0, 0.5); (2.0, 0.25) ];
      Figure.series ~label:"s2" [ (1.0, 0.9) ];
    ]

let figure_table_union () =
  let t = Figure.to_table ~precision:2 (fig ()) in
  let rendered = Table.render t in
  Alcotest.(check bool) "x union row 2" true (contains ~needle:"2.00" rendered);
  Alcotest.(check bool) "s1 value" true (contains ~needle:"0.25" rendered);
  (* s2 has no point at x=2: the cell is empty, so "0.90" appears once only. *)
  Alcotest.(check bool) "s2 value" true (contains ~needle:"0.90" rendered)

let figure_render_has_title () =
  let s = Figure.render (fig ()) in
  Alcotest.(check bool) "title" true (contains ~needle:"figX" s);
  Alcotest.(check bool) "legend" true (contains ~needle:"s1" s)

let figure_plot_nonempty () =
  let s = Figure.ascii_plot (fig ()) in
  Alcotest.(check bool) "non-empty" true (String.length s > 0)

let figure_plot_empty_series () =
  let empty = Figure.make ~id:"e" ~title:"e" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check string) "empty plot" "" (Figure.ascii_plot empty)

let figure_csv () =
  let csv = Figure.to_csv (fig ()) in
  Alcotest.(check bool) "header" true (contains ~needle:"load,s1,s2" csv)

let suites =
  [
    ( "table",
      [
        case "render aligns columns" render_aligns;
        case "short rows padded" short_rows_padded;
        case "long rows rejected" long_rows_rejected;
        case "csv quoting" csv_quoting;
        case "csv plain" csv_plain;
      ] );
    ( "figure",
      [
        case "table over x union" figure_table_union;
        case "render has title and legend" figure_render_has_title;
        case "ascii plot non-empty" figure_plot_nonempty;
        case "ascii plot empty" figure_plot_empty_series;
        case "csv export" figure_csv;
      ] );
  ]
