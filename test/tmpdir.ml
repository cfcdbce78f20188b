(* Temporary directories of the suites that touch the file system, each
   removed when its test ends, whether the test passed or failed. *)

let made = ref []
let counter = ref 0

(* A fresh path [$TMPDIR/PREFIX-PID-N]; the directory itself is created
   unless [create] is false (for stores that create their own). *)
let fresh ?(create = true) prefix =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
  in
  if create then (
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  made := d :: !made;
  d

let rec remove path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let clean () =
  List.iter remove !made;
  made := []

let test_case name speed f =
  Alcotest.test_case name speed (fun () -> Fun.protect ~finally:clean f)
