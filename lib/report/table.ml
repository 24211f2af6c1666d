type t = { headers : string list; rows : string list list }

let make ~headers rows =
  let width = List.length headers in
  let pad row =
    let n = List.length row in
    if n > width then invalid_arg "Table.make: row longer than header"
    else row @ List.init (width - n) (fun _ -> "")
  in
  { headers; rows = List.map pad rows }

let column_widths t =
  let update widths row =
    List.map2 (fun w cell -> max w (String.length cell)) widths row
  in
  List.fold_left update (List.map String.length t.headers) t.rows

let render t =
  let widths = column_widths t in
  let render_row row =
    let cells = List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule = "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+" in
  String.concat "\n"
    ((rule :: render_row t.headers :: rule :: List.map render_row t.rows) @ [ rule ])

let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  String.concat "\n" (line t.headers :: List.map line t.rows) ^ "\n"

let print t = print_endline (render t)
