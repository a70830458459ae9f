module darknight

go 1.22
