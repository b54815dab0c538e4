type action =
  | Crash of (string -> unit)
  | Raise of exn
  | Delay of Sim.time

let enabled = ref false
let total_hits = ref 0
let site_counts : (string, int) Hashtbl.t = Hashtbl.create 64
let armed_global : (int * action) list ref = ref []
let armed_site : (string * int * action) list ref = ref []

let reset () =
  enabled := false;
  total_hits := 0;
  Hashtbl.reset site_counts;
  armed_global := [];
  armed_site := []

let enable () = enabled := true
let total () = !total_hits

let count site =
  match Hashtbl.find_opt site_counts site with Some c -> c | None -> 0

let counts () =
  Hashtbl.fold (fun s c acc -> (s, c) :: acc) site_counts []
  |> List.sort compare

let arm ~at action = armed_global := (at, action) :: !armed_global
let arm_site site ~at action = armed_site := (site, at, action) :: !armed_site

let perform site = function
  | Crash f -> f site
  | Raise e -> raise e
  | Delay d -> Sim.sleep d

let hit site =
  if !enabled then begin
    incr total_hits;
    let c = count site + 1 in
    Hashtbl.replace site_counts site c;
    (match List.partition (fun (at, _) -> at = !total_hits) !armed_global with
    | [], _ -> ()
    | fired, rest ->
      armed_global := rest;
      List.iter (fun (_, a) -> perform site a) fired);
    match List.partition (fun (s, at, _) -> s = site && at = c) !armed_site with
    | [], _ -> ()
    | fired, rest ->
      armed_site := rest;
      List.iter (fun (_, _, a) -> perform site a) fired
  end
